#include "core/job_context.h"

#include "obs/live.h"
#include "util/check.h"

namespace raxh {

obs::LiveModel& JobContext::live_for_rank(int rank) const {
  if (live_models.empty()) return obs::default_live_model();
  RAXH_EXPECTS(rank >= 0 &&
               rank < static_cast<int>(live_models.size()) &&
               live_models[static_cast<std::size_t>(rank)] != nullptr);
  return *live_models[static_cast<std::size_t>(rank)];
}

}  // namespace raxh
