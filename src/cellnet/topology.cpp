#include "cellnet/topology.h"

#include <algorithm>
#include <stdexcept>

namespace litmus::net {

namespace {
const std::vector<ElementId> kEmpty;
}  // namespace

void Topology::add(NetworkElement element) {
  if (element.id == kInvalidElement)
    throw std::invalid_argument("Topology::add: invalid element id");
  if (contains(element.id))
    throw std::invalid_argument("Topology::add: duplicate element id " +
                                std::to_string(element.id.value));
  if (element.parent != kInvalidElement && !contains(element.parent))
    throw std::invalid_argument("Topology::add: unknown parent id " +
                                std::to_string(element.parent.value));
  const ElementId id = element.id;
  const ElementId parent = element.parent;
  elements_.emplace(id.value, std::move(element));
  order_.push_back(id);
  if (parent != kInvalidElement) children_[parent.value].push_back(id);
}

void Topology::add_neighbor_link(ElementId a, ElementId b) {
  if (a == b) return;
  if (!contains(a) || !contains(b))
    throw std::invalid_argument("add_neighbor_link: unknown element");
  auto link = [&](ElementId from, ElementId to) {
    auto& v = neighbors_[from.value];
    if (std::find(v.begin(), v.end(), to) == v.end()) v.push_back(to);
  };
  link(a, b);
  link(b, a);
}

bool Topology::contains(ElementId id) const noexcept {
  return elements_.contains(id.value);
}

const NetworkElement& Topology::get(ElementId id) const {
  const auto it = elements_.find(id.value);
  if (it == elements_.end())
    throw std::out_of_range("Topology::get: unknown element " +
                            std::to_string(id.value));
  return it->second;
}

std::optional<ElementId> Topology::parent_of(ElementId id) const {
  const ElementId p = get(id).parent;
  if (p == kInvalidElement) return std::nullopt;
  return p;
}

std::span<const ElementId> Topology::children_of(ElementId id) const {
  const auto it = children_.find(id.value);
  return it == children_.end() ? std::span<const ElementId>(kEmpty)
                               : std::span<const ElementId>(it->second);
}

std::span<const ElementId> Topology::neighbors_of(ElementId id) const {
  const auto it = neighbors_.find(id.value);
  return it == neighbors_.end() ? std::span<const ElementId>(kEmpty)
                                : std::span<const ElementId>(it->second);
}

std::vector<ElementId> Topology::subtree_of(ElementId id) const {
  std::vector<ElementId> out;
  std::vector<ElementId> stack{id};
  while (!stack.empty()) {
    const ElementId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const auto kids = children_of(cur);
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
  return out;
}

std::optional<ElementId> Topology::ancestor_of_kind(ElementId id,
                                                    ElementKind kind) const {
  std::optional<ElementId> cur = id;
  while (cur) {
    if (get(*cur).kind == kind) return cur;
    cur = parent_of(*cur);
  }
  return std::nullopt;
}

std::unordered_set<ElementId> Topology::impact_scope(ElementId id) const {
  std::unordered_set<ElementId> scope;
  for (const ElementId e : subtree_of(id)) {
    scope.insert(e);
    if (is_tower(get(e).kind))
      for (const ElementId n : neighbors_of(e)) scope.insert(n);
  }
  return scope;
}

std::vector<ElementId> Topology::of_kind(ElementKind kind) const {
  std::vector<ElementId> out;
  for (const ElementId id : order_)
    if (get(id).kind == kind) out.push_back(id);
  return out;
}

std::vector<ElementId> Topology::of_technology(Technology tech) const {
  std::vector<ElementId> out;
  for (const ElementId id : order_)
    if (get(id).technology == tech) out.push_back(id);
  return out;
}

std::vector<ElementId> Topology::in_region(Region region) const {
  std::vector<ElementId> out;
  for (const ElementId id : order_)
    if (get(id).region == region) out.push_back(id);
  return out;
}

std::vector<ElementId> Topology::within_radius(ElementId center,
                                               double radius_km) const {
  const GeoPoint c = get(center).location;
  std::vector<ElementId> out;
  for (const ElementId id : order_) {
    if (id == center) continue;
    if (haversine_km(c, get(id).location) <= radius_km) out.push_back(id);
  }
  return out;
}

std::vector<ElementId> Topology::same_zip(ElementId ref) const {
  const ZipCode z = get(ref).zip;
  std::vector<ElementId> out;
  for (const ElementId id : order_) {
    if (id == ref) continue;
    if (get(id).zip == z) out.push_back(id);
  }
  return out;
}

}  // namespace litmus::net
