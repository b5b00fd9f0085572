#include "routing/router.hpp"

#include <stdexcept>

namespace routing {

void Router::throwBadChoice(NodeIndex s, NodeIndex d, std::uint32_t level,
                            xgft::Count c) const {
  throw std::invalid_argument(
      "routing scheme '" + name() + "': NCA choice " + std::to_string(c) +
      " for pair " + std::to_string(s) + " -> " + std::to_string(d) +
      " is out of range (a level-" + std::to_string(level) + " pair has " +
      std::to_string(topo_->ncaChoices(level)) + " NCAs)");
}

}  // namespace routing
