// Deep invariant audit entry points for the serving layer.
#pragma once

#include "service/result_cache.hpp"
#include "util/thread_pool.hpp"

namespace pathsep::check {

/// Full-cache audit: every stored key is canonical (min vertex id in the
/// high half, see ResultCache::key), sits in the set its hash picks and
/// appears once in it, empty ways only follow occupied ones, and every
/// cached value is a legal distance (>= 0 or +inf).
void audit_result_cache(const service::ResultCache& cache);

/// Pool-state audit: the running-task count never exceeds the worker count
/// plus the threads helping through try_run_nested, and no queued task is a
/// null std::function (a null task would crash the worker that dequeues it).
void audit_thread_pool(const util::ThreadPool& pool);

}  // namespace pathsep::check
