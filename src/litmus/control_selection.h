// Domain-knowledge-guided control-group selection (paper Section 3.3).
//
// The evaluator picks control candidates *outside the impact scope* of the
// change, subject to the same external factors as the study group and
// similar in attributes. Litmus exposes the paper's attribute families as
// composable predicates:
//
//   1. geographical distance (lat/long, zip code)
//   2. topological structure (same upstream controller / parent)
//   3. configuration (software version, equipment model, antenna, OS)
//   4. terrain
//   5. traffic patterns
//
// Predicates can be uni-variate ("cell towers within the same zip code") or
// multi-variate via all_of / any_of composition ("towers sharing the common
// upstream RNC *and* upstream RNC with the same OS").
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cellnet/topology.h"

namespace litmus::core {

/// A predicate deciding whether `candidate` is an acceptable control for
/// `study`, evaluated against a fixed topology.
using ControlPredicate = std::function<bool(
    const net::Topology& topo, net::ElementId study, net::ElementId candidate)>;

// ---- Attribute family 1: geography ----------------------------------------
ControlPredicate same_zip();
ControlPredicate within_km(double radius_km);
ControlPredicate same_region();

// ---- Attribute family 2: topology ------------------------------------------
ControlPredicate same_parent();
/// Candidate and study share the nearest ancestor of the given kind (e.g.
/// NodeBs under the same RNC).
ControlPredicate same_upstream(net::ElementKind kind);
ControlPredicate same_technology();

// ---- Attribute family 3: configuration -------------------------------------
ControlPredicate same_software_version();
ControlPredicate same_equipment_model();
ControlPredicate son_state_matches();
/// Antenna parameters within the given tolerances.
ControlPredicate similar_antenna(double tilt_tolerance_deg,
                                 double power_tolerance_dbm);

// ---- Attribute families 4 and 5: terrain & traffic -------------------------
ControlPredicate same_terrain();
ControlPredicate same_traffic_profile();

// ---- Composition ------------------------------------------------------------
ControlPredicate all_of(std::vector<ControlPredicate> predicates);
ControlPredicate any_of(std::vector<ControlPredicate> predicates);
ControlPredicate negate(ControlPredicate predicate);

/// Selection policy. The paper deliberately keeps the control group at
/// 10s-100s elements: big enough for robust regression, small enough that
/// the shared external factors stay shared.
struct SelectionPolicy {
  std::size_t min_size = 4;
  std::size_t max_size = 60;
  /// When more candidates qualify than max_size, keep the geographically
  /// closest to the study group (they share external factors best).
  bool prefer_closest = true;
};

struct SelectionResult {
  std::vector<net::ElementId> controls;
  std::size_t candidates_considered = 0;
  std::size_t excluded_by_scope = 0;
  bool meets_min_size = false;
};

/// Selects the control group for a (possibly multi-element) study group:
/// every candidate must match the predicate against at least one study
/// element, be of the same kind as that element, and lie outside the impact
/// scope of *every* study element.
SelectionResult select_control_group(const net::Topology& topo,
                                     std::span<const net::ElementId> study,
                                     const ControlPredicate& predicate,
                                     const SelectionPolicy& policy = {});

/// As select_control_group, but drawing candidates from `candidates`
/// (insertion order, as topo.all() iterates) instead of the whole
/// topology. Every per-candidate rule — study exclusion, impact-scope
/// exclusion, kind match, the predicate, distance scoring, the policy cap
/// — still applies, so any candidate list that is a superset of the
/// predicate's matches (in topology order) selects the identical control
/// group; only the candidates_considered / excluded_by_scope tallies
/// reflect the narrowed pool. Batch sweeps pass a precomputed equivalence
/// group (BatchConfig::group_key) so per-record cost scales with the group
/// size, not the network size.
SelectionResult select_control_group_among(
    const net::Topology& topo, std::span<const net::ElementId> candidates,
    std::span<const net::ElementId> study, const ControlPredicate& predicate,
    const SelectionPolicy& policy = {});

}  // namespace litmus::core
