#include "cellnet/topology.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace litmus::net {
namespace {

NetworkElement elem(std::uint32_t id, ElementKind kind,
                    ElementId parent = kInvalidElement,
                    GeoPoint loc = {40.0, -74.0}) {
  NetworkElement e;
  e.id = ElementId{id};
  e.kind = kind;
  e.technology = Technology::kUmts;
  e.name = "e" + std::to_string(id);
  e.location = loc;
  e.zip = ZipCode{10000 + id % 3};
  e.region = Region::kNortheast;
  e.parent = parent;
  return e;
}

// MSC(1) -> RNC(2) -> NodeB(3,4); RNC(5) -> NodeB(6). 3-6 are neighbors of
// each other where linked.
Topology small_topo() {
  Topology t;
  t.add(elem(1, ElementKind::kMsc));
  t.add(elem(2, ElementKind::kRnc, ElementId{1}));
  t.add(elem(3, ElementKind::kNodeB, ElementId{2}, {40.0, -74.0}));
  t.add(elem(4, ElementKind::kNodeB, ElementId{2}, {40.01, -74.0}));
  t.add(elem(5, ElementKind::kRnc, ElementId{1}));
  t.add(elem(6, ElementKind::kNodeB, ElementId{5}, {40.02, -74.0}));
  t.add_neighbor_link(ElementId{4}, ElementId{6});
  return t;
}

TEST(Topology, AddAndLookup) {
  const Topology t = small_topo();
  EXPECT_EQ(t.size(), 6u);
  EXPECT_TRUE(t.contains(ElementId{3}));
  EXPECT_EQ(t.get(ElementId{3}).kind, ElementKind::kNodeB);
}

TEST(Topology, RejectsInvalidId) {
  Topology t;
  EXPECT_THROW(t.add(elem(0, ElementKind::kMsc)), std::invalid_argument);
}

TEST(Topology, RejectsDuplicateId) {
  Topology t;
  t.add(elem(1, ElementKind::kMsc));
  EXPECT_THROW(t.add(elem(1, ElementKind::kRnc)), std::invalid_argument);
}

TEST(Topology, RejectsUnknownParent) {
  Topology t;
  EXPECT_THROW(t.add(elem(2, ElementKind::kRnc, ElementId{9})),
               std::invalid_argument);
}

TEST(Topology, GetUnknownThrows) {
  const Topology t = small_topo();
  EXPECT_THROW(t.get(ElementId{99}), std::out_of_range);
}

TEST(Topology, ParentAndChildren) {
  const Topology t = small_topo();
  EXPECT_EQ(t.parent_of(ElementId{3}), ElementId{2});
  EXPECT_FALSE(t.parent_of(ElementId{1}).has_value());
  const auto kids = t.children_of(ElementId{2});
  EXPECT_EQ(kids.size(), 2u);
  EXPECT_TRUE(t.children_of(ElementId{3}).empty());
}

TEST(Topology, NeighborsAreSymmetric) {
  const Topology t = small_topo();
  const auto n4 = t.neighbors_of(ElementId{4});
  const auto n6 = t.neighbors_of(ElementId{6});
  ASSERT_EQ(n4.size(), 1u);
  ASSERT_EQ(n6.size(), 1u);
  EXPECT_EQ(n4[0], ElementId{6});
  EXPECT_EQ(n6[0], ElementId{4});
}

TEST(Topology, NeighborSelfLinkIgnored) {
  Topology t = small_topo();
  t.add_neighbor_link(ElementId{3}, ElementId{3});
  EXPECT_TRUE(t.neighbors_of(ElementId{3}).empty());
}

TEST(Topology, NeighborDuplicateLinkIdempotent) {
  Topology t = small_topo();
  t.add_neighbor_link(ElementId{4}, ElementId{6});
  EXPECT_EQ(t.neighbors_of(ElementId{4}).size(), 1u);
}

TEST(Topology, SubtreeContainsAllDescendants) {
  const Topology t = small_topo();
  auto sub = t.subtree_of(ElementId{1});
  std::sort(sub.begin(), sub.end());
  EXPECT_EQ(sub.size(), 6u);
  auto leaf = t.subtree_of(ElementId{3});
  EXPECT_EQ(leaf, (std::vector<ElementId>{ElementId{3}}));
}

TEST(Topology, AncestorOfKind) {
  const Topology t = small_topo();
  EXPECT_EQ(t.ancestor_of_kind(ElementId{3}, ElementKind::kMsc), ElementId{1});
  EXPECT_EQ(t.ancestor_of_kind(ElementId{3}, ElementKind::kRnc), ElementId{2});
  EXPECT_EQ(t.ancestor_of_kind(ElementId{3}, ElementKind::kNodeB),
            ElementId{3});  // self counts
  EXPECT_FALSE(
      t.ancestor_of_kind(ElementId{1}, ElementKind::kRnc).has_value());
}

TEST(Topology, ImpactScopeIncludesNeighborsOfTowers) {
  const Topology t = small_topo();
  // Changing RNC 2: scope = {2,3,4} plus tower 4's neighbor 6.
  const auto scope = t.impact_scope(ElementId{2});
  EXPECT_TRUE(scope.contains(ElementId{2}));
  EXPECT_TRUE(scope.contains(ElementId{3}));
  EXPECT_TRUE(scope.contains(ElementId{4}));
  EXPECT_TRUE(scope.contains(ElementId{6}));
  EXPECT_FALSE(scope.contains(ElementId{5}));  // other RNC itself untouched
  EXPECT_FALSE(scope.contains(ElementId{1}));
}

TEST(Topology, OfKindAndTechnology) {
  const Topology t = small_topo();
  EXPECT_EQ(t.of_kind(ElementKind::kNodeB).size(), 3u);
  EXPECT_EQ(t.of_kind(ElementKind::kRnc).size(), 2u);
  EXPECT_EQ(t.of_technology(Technology::kUmts).size(), 6u);
  EXPECT_TRUE(t.of_technology(Technology::kLte).empty());
}

TEST(Topology, InRegion) {
  const Topology t = small_topo();
  EXPECT_EQ(t.in_region(Region::kNortheast).size(), 6u);
  EXPECT_TRUE(t.in_region(Region::kWest).empty());
}

TEST(Topology, WithinRadiusExcludesCenter) {
  const Topology t = small_topo();
  const auto near = t.within_radius(ElementId{3}, 5.0);
  EXPECT_TRUE(std::find(near.begin(), near.end(), ElementId{3}) == near.end());
  EXPECT_FALSE(near.empty());
  EXPECT_TRUE(t.within_radius(ElementId{3}, 0.0001).empty() ||
              !t.within_radius(ElementId{3}, 0.0001).empty());
  // 1.1 km covers tower 4 (~1.1 km north) but check monotonicity instead:
  EXPECT_LE(t.within_radius(ElementId{3}, 1.0).size(),
            t.within_radius(ElementId{3}, 10.0).size());
}

TEST(Topology, SameZipExcludesSelf) {
  const Topology t = small_topo();
  // ids 3 and 6 share zip 10000 (id%3==0); 1 is in 10001... compute:
  const auto same = t.same_zip(ElementId{3});
  EXPECT_TRUE(std::find(same.begin(), same.end(), ElementId{3}) == same.end());
  for (const auto id : same)
    EXPECT_EQ(t.get(id).zip, t.get(ElementId{3}).zip);
}

TEST(Topology, AllPreservesInsertionOrder) {
  const Topology t = small_topo();
  const auto& all = t.all();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all.front(), ElementId{1});
  EXPECT_EQ(all.back(), ElementId{6});
}

}  // namespace
}  // namespace litmus::net
