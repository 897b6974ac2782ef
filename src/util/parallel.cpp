#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pdr::util {

void parallel_for(int jobs, std::size_t n, const std::function<void(std::size_t)>& body) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // the first exception a body threw; guarded by error_mutex
  const std::size_t workers = std::min(static_cast<std::size_t>(jobs), n);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace pdr::util
