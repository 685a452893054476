#include "check/audit_service.hpp"

namespace pathsep::check {

void audit_result_cache(const service::ResultCache& cache) { cache.audit(); }

void audit_thread_pool(const util::ThreadPool& pool) { pool.audit(); }

}  // namespace pathsep::check
