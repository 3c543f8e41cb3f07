#include "litmus/control_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace litmus::core {

ControlPredicate same_zip() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).zip == t.get(c).zip;
  };
}

ControlPredicate within_km(double radius_km) {
  return [radius_km](const net::Topology& t, net::ElementId s,
                     net::ElementId c) {
    return net::haversine_km(t.get(s).location, t.get(c).location) <=
           radius_km;
  };
}

ControlPredicate same_region() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).region == t.get(c).region;
  };
}

ControlPredicate same_parent() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).parent == t.get(c).parent &&
           t.get(s).parent != net::kInvalidElement;
  };
}

ControlPredicate same_upstream(net::ElementKind kind) {
  return [kind](const net::Topology& t, net::ElementId s, net::ElementId c) {
    const auto us = t.ancestor_of_kind(s, kind);
    const auto uc = t.ancestor_of_kind(c, kind);
    return us && uc && *us == *uc;
  };
}

ControlPredicate same_technology() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).technology == t.get(c).technology;
  };
}

ControlPredicate same_software_version() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).config.software == t.get(c).config.software;
  };
}

ControlPredicate same_equipment_model() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).config.equipment_model == t.get(c).config.equipment_model;
  };
}

ControlPredicate son_state_matches() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).config.son_enabled == t.get(c).config.son_enabled;
  };
}

ControlPredicate similar_antenna(double tilt_tol, double power_tol) {
  return [tilt_tol, power_tol](const net::Topology& t, net::ElementId s,
                               net::ElementId c) {
    const auto& a = t.get(s).config.antenna;
    const auto& b = t.get(c).config.antenna;
    return std::fabs(a.tilt_deg - b.tilt_deg) <= tilt_tol &&
           std::fabs(a.tx_power_dbm - b.tx_power_dbm) <= power_tol;
  };
}

ControlPredicate same_terrain() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).config.terrain == t.get(c).config.terrain;
  };
}

ControlPredicate same_traffic_profile() {
  return [](const net::Topology& t, net::ElementId s, net::ElementId c) {
    return t.get(s).config.traffic == t.get(c).config.traffic;
  };
}

ControlPredicate all_of(std::vector<ControlPredicate> preds) {
  return [preds = std::move(preds)](const net::Topology& t, net::ElementId s,
                                    net::ElementId c) {
    for (const auto& p : preds)
      if (!p(t, s, c)) return false;
    return true;
  };
}

ControlPredicate any_of(std::vector<ControlPredicate> preds) {
  return [preds = std::move(preds)](const net::Topology& t, net::ElementId s,
                                    net::ElementId c) {
    for (const auto& p : preds)
      if (p(t, s, c)) return true;
    return false;
  };
}

ControlPredicate negate(ControlPredicate pred) {
  return [pred = std::move(pred)](const net::Topology& t, net::ElementId s,
                                  net::ElementId c) { return !pred(t, s, c); };
}

SelectionResult select_control_group(const net::Topology& topo,
                                     std::span<const net::ElementId> study,
                                     const ControlPredicate& predicate,
                                     const SelectionPolicy& policy) {
  return select_control_group_among(topo, topo.all(), study, predicate,
                                    policy);
}

SelectionResult select_control_group_among(
    const net::Topology& topo, std::span<const net::ElementId> candidates,
    std::span<const net::ElementId> study, const ControlPredicate& predicate,
    const SelectionPolicy& policy) {
  SelectionResult result;
  if (study.empty()) return result;

  // Union of impact scopes over the study group: never pick a control the
  // change itself may touch.
  std::unordered_set<net::ElementId> scope;
  for (const auto s : study) {
    const auto sc = topo.impact_scope(s);
    scope.insert(sc.begin(), sc.end());
  }

  struct Scored {
    net::ElementId id;
    double distance_km;
  };
  std::vector<Scored> accepted;
  for (const auto cand : candidates) {
    bool is_study = false;
    for (const auto s : study)
      if (s == cand) is_study = true;
    if (is_study) continue;
    ++result.candidates_considered;
    if (scope.contains(cand)) {
      ++result.excluded_by_scope;
      continue;
    }
    double best_dist = std::numeric_limits<double>::infinity();
    bool matched = false;
    for (const auto s : study) {
      if (topo.get(s).kind != topo.get(cand).kind) continue;
      if (!predicate(topo, s, cand)) continue;
      matched = true;
      best_dist = std::min(best_dist,
                           net::haversine_km(topo.get(s).location,
                                             topo.get(cand).location));
    }
    if (matched) accepted.push_back({cand, best_dist});
  }

  if (policy.prefer_closest) {
    std::stable_sort(accepted.begin(), accepted.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.distance_km < b.distance_km;
                     });
  }
  if (accepted.size() > policy.max_size) accepted.resize(policy.max_size);

  result.controls.reserve(accepted.size());
  for (const auto& a : accepted) result.controls.push_back(a.id);
  result.meets_min_size = result.controls.size() >= policy.min_size;
  return result;
}

}  // namespace litmus::core
