// Per-element configuration snapshot (paper Section 2.2, "Network
// configuration"). Snapshots drive control-group selection attributes 3-5
// (software version, equipment model, antenna parameters, terrain, traffic
// profile) and let the change log describe configuration deltas.
#pragma once

#include <cstdint>
#include <string>

#include "cellnet/types.h"

namespace litmus::net {

/// Software release identifier with a total order (major.minor.patch).
struct SoftwareVersion {
  std::uint16_t major = 0;
  std::uint16_t minor = 0;
  std::uint16_t patch = 0;

  constexpr auto operator<=>(const SoftwareVersion&) const = default;
  std::string to_string() const;
};

/// Antenna parameters — the paper's canonical high-frequency change targets
/// (Section 2.3).
struct AntennaConfig {
  double tilt_deg = 0.0;       ///< positive = down-tilt
  double tx_power_dbm = 43.0;  ///< downlink transmission power
  double azimuth_deg = 0.0;
  double frequency_mhz = 1900.0;

  bool operator==(const AntennaConfig&) const = default;
};

/// Gold-standard (low-frequency) parameters: "one value fits all locations"
/// (Section 2.3). Modeled as a small named set so change records can
/// reference individual parameters.
struct GoldStandardParams {
  int radio_link_failure_timer_ms = 5000;
  int handover_time_to_trigger_ms = 320;
  int access_threshold_dbm = -110;
  int max_power_limit_dbm = 46;

  bool operator==(const GoldStandardParams&) const = default;
};

/// Full configuration snapshot for one element.
struct ConfigSnapshot {
  SoftwareVersion software;
  std::string equipment_model;  ///< e.g. vendor hardware family
  std::string os_version;       ///< controller operating system
  AntennaConfig antenna;        ///< meaningful for towers/sectors only
  GoldStandardParams gold;
  Terrain terrain = Terrain::kSuburban;
  TrafficProfile traffic = TrafficProfile::kResidential;
  bool son_enabled = false;     ///< Self-Optimizing Network features active

  bool operator==(const ConfigSnapshot&) const = default;
};

}  // namespace litmus::net
