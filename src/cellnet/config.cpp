#include "cellnet/config.h"

namespace litmus::net {

std::string SoftwareVersion::to_string() const {
  return std::to_string(major) + "." + std::to_string(minor) + "." +
         std::to_string(patch);
}

}  // namespace litmus::net
