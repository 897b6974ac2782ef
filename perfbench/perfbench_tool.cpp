// perfbench_tool — the benchmark's in-process half.
//
//   perfbench_tool project <out> --shape S --ops N --width W --regions R --seed X
//                  [--conditioned K]
//       Writes a generated project file (bench::generate_graph on
//       bench_architecture(R, 2) + bench_durations, aaa::write_project).
//       --conditioned K picks the conditioned-vertex spacing that gives
//       exactly K conditioned vertices (the explorer's selection axis).
//   perfbench_tool requests <out> --devices D --requests N --horizon-ms H --seed X
//       Writes a generated request log over the case-study catalog
//       (svc::generate_request_log + write_request_log), 50 ms deadlines.
//   perfbench_tool trace <plan-file> --trace-out FILE
//       The traced run: replays each op of the plan by calling the layers'
//       public functions in the order `pdrflow` calls them, with one span
//       per call, and writes the spans as Chrome trace-event JSON. Plan
//       lines (whitespace separated):
//         check <label> <project>
//         adequation <label> <project>
//         explore <label> <project> <jobs> <max-points>
//         floorplan <label> <project>
//         serve <label> <log> <queue> <jobs> <faults-file|->
//
// Span names are the per-layer metric stems of BENCHMARK.json ("aaa.parse"
// feeds aaa.parse_s); each span sits on its op's track with category
// "layer" and an `op` argument, under one category-"op" span per op.
// Spans in category "probe" (the scheduler kernel on an explore project,
// bitstream validation and CRC throughput on a serve bundle) measure a
// layer outside the op's own call chain and are not part of any op.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/explorer.hpp"
#include "aaa/macrocode.hpp"
#include "aaa/project_io.hpp"
#include "bench/generators.hpp"
#include "dsp/crc.hpp"
#include "fabric/bitstream.hpp"
#include "fault/fault_spec.hpp"
#include "flow/artifact_store.hpp"
#include "flow/explorer.hpp"
#include "flow/pipeline.hpp"
#include "lint/executive_rules.hpp"
#include "lint/lint.hpp"
#include "lint/schedule_rules.hpp"
#include "mccdma/case_study.hpp"
#include "mccdma/flow_presets.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/planner.hpp"
#include "rtr/manager.hpp"
#include "svc/request_log.hpp"
#include "svc/service.hpp"
#include "svc/service_rules.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "verify/verify.hpp"

using namespace pdr;
using util::ArgParser;

namespace {

constexpr int kCpus = 2;                  // processors of every generated architecture
constexpr TimeNs kDeadline = 50'000'000;  // relative deadline of every generated request

/// Strict unsigned value of a flag that must be given.
std::uint64_t required_uint(const ArgParser& args, const char* flag) {
  if (!args.has(flag)) throw Error(std::string("missing required flag ") + flag);
  return args.uint_or(flag, 0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw Error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.good()) throw Error("cannot write '" + path + "'");
}

std::shared_ptr<const synth::DesignBundle> case_study_bundle() {
  return mccdma::constraints_pipeline(mccdma::case_study_constraints_text(),
                                      mccdma::case_study_statics())
      .bundle();
}

int count_conditioned(const aaa::AlgorithmGraph& g) {
  int n = 0;
  for (const graph::NodeId id : g.digraph().node_ids())
    if (g.op(id).conditioned()) ++n;
  return n;
}

int cmd_project(int argc, char** argv) {
  const ArgParser args("project", argc, argv,
                       {{"--shape", true},
                        {"--ops", true},
                        {"--width", true},
                        {"--regions", true},
                        {"--seed", true},
                        {"--conditioned", true}},
                       1);
  bench::GeneratorConfig cfg;
  const std::string* shape = args.value("--shape");
  if (shape == nullptr) throw Error("missing required flag --shape");
  cfg.shape = bench::graph_shape_from_name(*shape);
  cfg.n_ops = static_cast<int>(required_uint(args, "--ops"));
  cfg.width = static_cast<int>(required_uint(args, "--width"));
  cfg.seed = required_uint(args, "--seed");

  aaa::Project project;
  project.name = strprintf("%s-%d", bench::graph_shape_name(cfg.shape), cfg.n_ops);
  if (args.has("--conditioned")) {
    // The spacing-to-count map is monotone but shape-dependent (sources,
    // sinks and lane heads are never conditioned): walk the spacing down
    // from the even split until the count is exact.
    const int want = static_cast<int>(required_uint(args, "--conditioned"));
    for (cfg.conditioned_every = cfg.n_ops / std::max(want, 1); cfg.conditioned_every > 1;
         --cfg.conditioned_every) {
      project.algorithm = bench::generate_graph(cfg);
      const int have = count_conditioned(project.algorithm);
      if (have == want) break;
      if (have > want) throw Error(strprintf("no spacing gives %d conditioned vertices", want));
    }
  } else {
    project.algorithm = bench::generate_graph(cfg);
  }
  project.architecture =
      bench::bench_architecture(static_cast<int>(required_uint(args, "--regions")), kCpus);
  project.durations = bench::bench_durations();
  const std::string text = aaa::write_project(project);
  write_file(args.positional(0), text);
  std::printf("{\"ops\": %zu, \"conditioned\": %d, \"bytes\": %zu}\n", project.algorithm.size(),
              count_conditioned(project.algorithm), text.size());
  return 0;
}

int cmd_requests(int argc, char** argv) {
  const ArgParser args("requests", argc, argv,
                       {{"--devices", true},
                        {"--requests", true},
                        {"--horizon-ms", true},
                        {"--seed", true}},
                       1);
  const std::shared_ptr<const synth::DesignBundle> bundle = case_study_bundle();
  std::vector<std::pair<std::string, std::vector<std::string>>> catalog;
  for (const auto& [region, variants] : bundle->dynamic_variants)
    catalog.emplace_back(region, bundle->variant_names(region));

  svc::TrafficOptions traffic;
  traffic.devices = static_cast<int>(required_uint(args, "--devices"));
  traffic.requests = static_cast<int>(required_uint(args, "--requests"));
  traffic.seed = required_uint(args, "--seed");
  traffic.horizon = static_cast<TimeNs>(required_uint(args, "--horizon-ms")) * 1'000'000;
  traffic.deadline = kDeadline;
  const svc::RequestLog log = svc::generate_request_log(traffic, catalog);
  const std::string text = svc::write_request_log(log);
  write_file(args.positional(0), text);
  std::printf("{\"requests\": %zu, \"bytes\": %zu}\n", log.requests.size(), text.size());
  return 0;
}

// --- traced run --------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Wall-clock spans against one process-wide origin, kept in memory until
/// the run ends.
class Spans {
 public:
  /// Times `body` as span `name` on `track`. Spans whose counts are only
  /// known afterwards use now() + close() instead.
  template <typename Body>
  auto time(const std::string& track, const std::string& name, const char* category,
            Body&& body, std::vector<obs::TraceArg> args = {}) {
    const TimeNs start = now();
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      close(track, name, category, start, std::move(args));
    } else {
      auto result = body();
      close(track, name, category, start, std::move(args));
      return result;
    }
  }

  TimeNs now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  void close(const std::string& track, const std::string& name, const char* category,
             TimeNs start, std::vector<obs::TraceArg> args) {
    if (category != std::string("op")) args.insert(args.begin(), {"op", track});
    tracer_.span(track, name, category, start, now(), std::move(args));
  }

  obs::Tracer& tracer() { return tracer_; }

 private:
  Clock::time_point origin_ = Clock::now();
  obs::Tracer tracer_;
};

obs::TraceArg arg(const char* key, double value) { return {key, strprintf("%.17g", value)}; }

/// `pdrflow check --deep <project>`: verify::deep_check_text's call chain.
/// Returns the merged report's error count, which the CLI prints.
std::size_t trace_check(Spans& s, const std::string& op, const std::string& path) {
  const std::string text = read_file(path);
  const aaa::Project project = s.time(op, "aaa.parse", "layer", [&] { return aaa::parse_project(text); },
                                      {arg("bytes", static_cast<double>(text.size()))});
  TimeNs t = s.now();
  const aaa::Adequation adequation(project.algorithm, project.architecture, project.durations);
  const aaa::Schedule schedule = adequation.run();
  s.close(op, "aaa.schedule", "layer", t, {arg("items", static_cast<double>(schedule.size()))});
  lint::Report report = s.time(op, "lint.schedule", "layer", [&] {
    return lint::check_schedule(schedule, project.algorithm, project.architecture);
  });
  report.merge(s.time(op, "verify.certify", "layer", [&] {
    return verify::verify_schedule(schedule, project.algorithm, project.architecture).to_report();
  }));
  const aaa::Executive executive = s.time(op, "aaa.executive", "layer", [&] {
    return aaa::generate_executive(schedule, project.algorithm, project.architecture);
  });
  t = s.now();
  const lint::Report executive_report = lint::check_executive(executive);
  s.close(op, "lint.executive", "layer", t,
          {arg("errors", static_cast<double>(executive_report.errors()))});
  report.merge(executive_report);
  return report.errors();
}

/// `pdrflow adequation <project>`: the direct layer calls, then the same
/// work through flow::Pipeline (its excess over the direct calls is the
/// fingerprint/artifact-store overhead), then the CLI's render.
void trace_adequation(Spans& s, const std::string& op, const std::string& path) {
  const std::string text = read_file(path);
  const TimeNs reconfig_cost = 4'000'000;
  {
    const aaa::Project project = s.time(op, "aaa.parse", "layer",
                                        [&] { return aaa::parse_project(text); },
                                        {arg("bytes", static_cast<double>(text.size()))});
    TimeNs t = s.now();
    aaa::Adequation adequation(project.algorithm, project.architecture, project.durations);
    adequation.set_reconfig_cost(
        [reconfig_cost](const std::string&, const std::string&) { return reconfig_cost; });
    aaa::AdequationOptions options;
    options.prefetch = true;
    const aaa::Schedule schedule = adequation.run(options);
    s.close(op, "aaa.schedule", "layer", t, {arg("items", static_cast<double>(schedule.size()))});
    const aaa::Executive executive = s.time(op, "aaa.executive", "layer", [&] {
      return aaa::generate_executive(schedule, project.algorithm, project.architecture);
    });
    s.time(op, "lint.schedule", "layer", [&] {
      return lint::check_schedule(schedule, project.algorithm, project.architecture);
    });
    t = s.now();
    const lint::Report executive_report = lint::check_executive(executive);
    s.close(op, "lint.executive", "layer", t,
            {arg("errors", static_cast<double>(executive_report.errors()))});
    s.time(op, "verify.certify", "layer", [&] {
      return verify::verify_schedule(schedule, project.algorithm, project.architecture);
    });
  }

  flow::PipelineOptions options;
  options.project_text = text;
  options.reconfig_cost = reconfig_cost;
  options.prefetch = true;
  options.lint_gate = false;
  flow::Pipeline pipeline(std::move(options), std::make_shared<flow::ArtifactStore>());
  const TimeNs t = s.now();
  const std::shared_ptr<const aaa::Project> project = pipeline.project();
  const std::shared_ptr<const flow::AdequationArtifacts> adeq = pipeline.adequation();
  s.close(op, "flow.pipeline", "layer", t, {});
  if (adeq->report.errors() > 0) return;  // the CLI prints the report and exits 1

  TimeNs render = s.now();
  {
    std::string out = strprintf("project '%s': %zu operations on %zu operators\n\n",
                                project->name.c_str(), project->algorithm.size(),
                                project->architecture.operators().size());
    out += adeq->schedule.to_string();
    out += "\n";
    out += adeq->schedule.gantt();
    out += "\nsynchronized executive:\n";
    out += adeq->executive.to_string();
    s.close(op, "cli.render", "layer", render, {arg("bytes", static_cast<double>(out.size()))});
  }
  s.time(op, "cli.export", "layer", [&] {
    obs::Tracer tracer;
    aaa::export_schedule(adeq->schedule, tracer);
  });
}

aaa::Project parse_for(Spans& s, const std::string& op, const std::string& path) {
  const std::string text = read_file(path);
  return s.time(op, "aaa.parse", "layer", [&] { return aaa::parse_project(text); },
                {arg("bytes", static_cast<double>(text.size()))});
}

void trace_explore(Spans& s, const std::string& op, const std::string& path, int jobs,
                   std::size_t max_points) {
  const aaa::Project project = parse_for(s, op, path);
  {
    // Probe: one scheduler run on the project's default point.
    const TimeNs t = s.now();
    const aaa::Adequation adequation(project.algorithm, project.architecture, project.durations);
    const aaa::Schedule schedule = adequation.run();
    s.close("probe " + op, "aaa.schedule", "probe", t,
            {arg("items", static_cast<double>(schedule.size()))});
  }
  flow::ExplorerOptions options;
  options.jobs = jobs;
  options.max_points = max_points;
  const TimeNs t = s.now();
  const flow::DesignSpaceExplorer explorer(project, aaa::ExplorationSpace::from_project(project),
                                           options);
  const flow::ExplorationReport report = explorer.run();
  std::string point_ms;
  for (const flow::ScenarioResult& r : report.sweep.results)
    point_ms += strprintf(point_ms.empty() ? "%.6f" : ",%.6f", r.wall_ms);
  s.close(op, "flow.explore", "layer", t,
          {arg("points", static_cast<double>(report.points.size())),
           arg("failed_points", static_cast<double>(report.failed_points())),
           arg("pruned_points", static_cast<double>(report.pruned_points())),
           arg("jobs", jobs), {"point_ms", point_ms}});
  const TimeNs render = s.now();
  const std::string out = report.to_string();
  s.close(op, "cli.render", "layer", render, {arg("bytes", static_cast<double>(out.size()))});
}

void trace_floorplan(Spans& s, const std::string& op, const std::string& path) {
  const aaa::Project project = parse_for(s, op, path);
  const TimeNs t = s.now();
  const plan::PlanResult result = plan::plan_floorplan(project, plan::PlanOptions{});
  s.close(op, "plan.floorplan", "layer", t,
          {arg("evals", result.evaluated), arg("rounds", result.rounds),
           arg("certified", result.certified ? 1 : 0)});
  const TimeNs render = s.now();
  const std::string out = result.to_string() + result.constraints_fragment();
  s.close(op, "cli.render", "layer", render, {arg("bytes", static_cast<double>(out.size()))});
}

/// `pdrflow serve`: bundle, log parse, PDR12x pre-flight, fleet run,
/// report render — cmd_serve's call chain with its settings.
void trace_serve(Spans& s, const std::string& op, const std::string& log_path, std::size_t queue,
                 int jobs, const std::string& faults_path) {
  const std::shared_ptr<const synth::DesignBundle> bundle =
      s.time(op, "synth.bundle", "layer", [] { return case_study_bundle(); });
  const std::string text = read_file(log_path);
  const svc::RequestLog log = s.time(op, "svc.parse_log", "layer",
                                     [&] { return svc::parse_request_log(text); },
                                     {arg("bytes", static_cast<double>(text.size()))});

  svc::ServiceConfig config;
  config.jobs = jobs;
  config.manager = rtr::sundance_manager_config();
  config.manager.recovery.enabled = true;
  config.store_bandwidth_bytes_per_s = mccdma::kCaseStudyStoreBandwidth;
  config.store_latency = mccdma::kCaseStudyStoreLatency;
  config.queue_capacity = queue;
  s.time(op, "svc.lint", "layer", [&] {
    rtr::BitstreamStore lint_store = mccdma::make_case_study_store();
    rtr::NonePrefetch lint_policy;
    const rtr::ReconfigManager lint_manager(*bundle, config.manager, lint_store, lint_policy);
    return svc::check_request_log(log, *bundle, lint_manager);
  });

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const TimeNs t = s.now();
  svc::FleetService service(*bundle, config);
  service.set_observability(&tracer, &metrics);
  if (faults_path != "-") service.arm_faults(fault::parse_fault_spec(read_file(faults_path)));
  const svc::ServiceReport report = service.run(log);
  const rtr::ManagerStats stats = report.fleet_stats();
  s.close(op, "svc.run", "layer", t,
          {arg("ticks", report.ticks), arg("devices", report.devices),
           arg("requests", static_cast<double>(report.records.size())),
           arg("admitted", report.admitted), arg("rerouted", report.rerouted),
           arg("cache_hits", static_cast<double>(report.cache.served)),
           arg("cache_lookups", static_cast<double>(report.cache.fetches + report.cache.served)),
           arg("loads", stats.requests - stats.already_loaded), arg("retries", stats.retries),
           arg("load_failures", stats.load_failures), arg("scrubs", stats.scrubs),
           arg("scrub_repairs", stats.scrub_repairs), arg("seus", report.seus_injected),
           arg("bytes_loaded", static_cast<double>(stats.bytes_loaded))});
  const TimeNs render = s.now();
  const std::string out = report.to_string();
  s.close(op, "svc.render", "layer", render, {arg("bytes", static_cast<double>(out.size()))});

  // Probes over the bundle's partial bitstreams: what every load pays to
  // validate and checksum a stream, at a size that times reliably.
  std::vector<const std::vector<std::uint8_t>*> streams;
  std::size_t stream_bytes = 0;
  for (const auto& [region, variants] : bundle->dynamic_variants)
    for (const auto& v : variants) {
      streams.push_back(&v.bitstream);
      stream_bytes += v.bitstream.size();
    }
  const int reps = static_cast<int>(std::max<std::size_t>(1, (64u << 20) / std::max<std::size_t>(stream_bytes, 1)));
  const std::string probe = "probe " + op;
  s.time(probe, "fabric.validate", "probe", [&] {
    for (int i = 0; i < reps; ++i)
      for (const auto* stream : streams) fabric::BitstreamReader::validate(bundle->device, *stream);
  }, {arg("bytes", static_cast<double>(stream_bytes) * reps)});
  s.time(probe, "dsp.crc32", "probe", [&] {
    for (int i = 0; i < reps; ++i)
      for (const auto* stream : streams) (void)dsp::crc32(*stream);
  }, {arg("bytes", static_cast<double>(stream_bytes) * reps)});
}

int cmd_trace(int argc, char** argv) {
  const ArgParser args("trace", argc, argv, {{"--trace-out", true}}, 1);
  const std::string* out = args.value("--trace-out");
  if (out == nullptr) throw Error("'trace' requires --trace-out FILE");
  std::istringstream plan(read_file(args.positional(0)));
  Spans spans;
  std::string line;
  while (std::getline(plan, line)) {
    std::istringstream in(line);
    std::string kind, label;
    if (!(in >> kind >> label)) continue;
    const std::string op = kind + " " + label;
    const TimeNs start = spans.now();
    std::vector<obs::TraceArg> op_args;
    try {
      std::string path;
      in >> path;
      if (kind == "check") {
        op_args.push_back(arg("errors", static_cast<double>(trace_check(spans, op, path))));
      } else if (kind == "adequation") {
        trace_adequation(spans, op, path);
      } else if (kind == "explore") {
        int jobs = 1;
        std::size_t max_points = 0;
        in >> jobs >> max_points;
        trace_explore(spans, op, path, jobs, max_points);
      } else if (kind == "floorplan") {
        trace_floorplan(spans, op, path);
      } else if (kind == "serve") {
        std::size_t queue = 8;
        int jobs = 1;
        std::string faults;
        in >> queue >> jobs >> faults;
        trace_serve(spans, op, path, queue, jobs, faults);
      } else {
        throw Error("unknown plan op '" + kind + "'");
      }
    } catch (const Error& e) {
      op_args.push_back({"error", e.what()});
    }
    spans.close(op, op, "op", start, std::move(op_args));
  }
  spans.tracer().write_chrome_json(*out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::fputs("usage: perfbench_tool project|requests|trace ...\n", stderr);
      return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "project") return cmd_project(argc - 2, argv + 2);
    if (cmd == "requests") return cmd_requests(argc - 2, argv + 2);
    if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
    std::fprintf(stderr, "perfbench_tool: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "perfbench_tool: %s\n", e.what());
    return 1;
  }
}
