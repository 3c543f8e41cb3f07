// Topology: the element inventory plus parent/child and neighbor structure.
//
// The paper (Section 2.2) derives topology from daily configuration
// snapshots and uses it to (i) bound the causal impact scope of changes
// (e.g. neighboring cell towers) and (ii) find control-group candidates
// sharing an upstream controller. Both queries live here.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cellnet/element.h"

namespace litmus::net {

class Topology {
 public:
  /// Adds an element; its id must be unique and non-invalid. If the element
  /// declares a parent, the parent must already exist.
  void add(NetworkElement element);

  /// Declares towers `a` and `b` to be radio neighbors (handover partners).
  /// Both must exist. Symmetric; self-links are ignored.
  void add_neighbor_link(ElementId a, ElementId b);

  std::size_t size() const noexcept { return elements_.size(); }
  bool contains(ElementId id) const noexcept;

  /// Lookup; throws std::out_of_range for unknown ids.
  const NetworkElement& get(ElementId id) const;

  std::optional<ElementId> parent_of(ElementId id) const;
  std::span<const ElementId> children_of(ElementId id) const;
  std::span<const ElementId> neighbors_of(ElementId id) const;

  /// All elements in the subtree rooted at `id`, including `id` itself.
  std::vector<ElementId> subtree_of(ElementId id) const;

  /// Walks upward to the nearest ancestor of the given kind (or self).
  std::optional<ElementId> ancestor_of_kind(ElementId id,
                                            ElementKind kind) const;

  /// Causal impact scope of a change at `id`: the subtree plus radio
  /// neighbors of every tower in it. Control candidates must fall outside
  /// this set (Section 3.3).
  std::unordered_set<ElementId> impact_scope(ElementId id) const;

  /// All ids, in insertion order.
  const std::vector<ElementId>& all() const noexcept { return order_; }

  std::vector<ElementId> of_kind(ElementKind kind) const;
  std::vector<ElementId> of_technology(Technology tech) const;
  std::vector<ElementId> in_region(Region region) const;

  /// Elements within `radius_km` of `center` (excluding `center` itself).
  std::vector<ElementId> within_radius(ElementId center,
                                       double radius_km) const;

  /// Elements sharing the zip code of `ref` (excluding `ref`).
  std::vector<ElementId> same_zip(ElementId ref) const;

 private:
  std::unordered_map<std::uint32_t, NetworkElement> elements_;
  std::unordered_map<std::uint32_t, std::vector<ElementId>> children_;
  std::unordered_map<std::uint32_t, std::vector<ElementId>> neighbors_;
  std::vector<ElementId> order_;
};

}  // namespace litmus::net
