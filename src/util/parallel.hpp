// One fork-join worker loop, shared by every parallel phase.
//
// Not a persistent pool: each call starts its threads and joins them
// before it returns.
#pragma once

#include <cstddef>
#include <functional>

namespace pdr::util {

/// Runs `body(i)` for every i in [0, n) and returns when all calls are
/// done. min(jobs, n) threads pull indices from one shared cursor, so
/// `body` must be safe to run concurrently for distinct indices.
/// jobs <= 1 or n <= 1 runs inline on the calling thread, in index order.
/// An exception from `body` reaches the caller: on the parallel path the
/// first one is rethrown after every thread has joined.
void parallel_for(int jobs, std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace pdr::util
