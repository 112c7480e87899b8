/// runtime::partition_blocks — the grid partition behind the SPMD runtime:
/// remainder-first z-slab layer ranges and plane-sized slab halos, prime
/// rank counts, single-element-deep axes, and the closed-form halo
/// accounting against the BlockHalo the runtime actually builds.

#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/partition.hpp"
#include "runtime/rank_system.hpp"
#include "runtime/spmd.hpp"

namespace semfpga::runtime {
namespace {

sem::BoxMeshSpec spec_of(int degree, int nelx, int nely, int nelz) {
  sem::BoxMeshSpec spec;
  spec.degree = degree;
  spec.nelx = nelx;
  spec.nely = nely;
  spec.nelz = nelz;
  return spec;
}

std::size_t global_elements(const sem::BoxMeshSpec& spec) {
  return static_cast<std::size_t>(spec.nelx) * static_cast<std::size_t>(spec.nely) *
         static_cast<std::size_t>(spec.nelz);
}

TEST(PartitionBlocks, SlabKindSplitsLayersRemainderFirst) {
  // z-slabs over the full x/y extent; the first nelz % ranks slabs get
  // one extra layer.  `bounds` lists each rank's z_begin, then nelz.
  struct Case {
    int nelz;
    int ranks;
    std::vector<int> bounds;
  };
  const Case cases[] = {
      {13, 4, {0, 4, 7, 10, 13}},
      {10, 4, {0, 3, 6, 8, 10}},
      {6, 3, {0, 2, 4, 6}},
      {8, 1, {0, 8}},
  };
  for (const Case& c : cases) {
    const sem::BoxMeshSpec spec = spec_of(3, 5, 4, c.nelz);
    const BlockPartition blocks = partition_blocks(spec, c.ranks, PartitionKind::kSlab);
    ASSERT_EQ(blocks.px, 1);
    ASSERT_EQ(blocks.py, 1);
    ASSERT_EQ(blocks.pz, c.ranks);
    ASSERT_EQ(blocks.ranks.size(), static_cast<std::size_t>(c.ranks));
    for (int r = 0; r < c.ranks; ++r) {
      const RankBlock& b = blocks.ranks[static_cast<std::size_t>(r)];
      const int z_begin = c.bounds[static_cast<std::size_t>(r)];
      const int z_end = c.bounds[static_cast<std::size_t>(r) + 1];
      ASSERT_EQ(b.z_begin, z_begin) << "nelz " << c.nelz << " rank " << r;
      ASSERT_EQ(b.z_end, z_end) << "nelz " << c.nelz << " rank " << r;
      ASSERT_EQ(b.x_begin, 0);
      ASSERT_EQ(b.x_end, spec.nelx);
      ASSERT_EQ(b.y_begin, 0);
      ASSERT_EQ(b.y_end, spec.nely);
      ASSERT_EQ(b.n_elements, 5LL * 4 * (z_end - z_begin));
    }
  }
}

TEST(PartitionBlocks, SlabRemainderLayersAlwaysLandOnTheFirstRanks) {
  // Exhaustive small sweep: slabs are contiguous, cover every layer once,
  // and stay within one layer of each other, larger slabs first.
  for (int nelz = 1; nelz <= 9; ++nelz) {
    for (int ranks = 1; ranks <= nelz; ++ranks) {
      const BlockPartition part =
          partition_blocks(spec_of(2, 2, 2, nelz), ranks, PartitionKind::kSlab);
      ASSERT_EQ(static_cast<int>(part.ranks.size()), ranks);
      int z = 0;
      for (int r = 0; r < ranks; ++r) {
        const RankBlock& b = part.ranks[static_cast<std::size_t>(r)];
        const int expected = nelz / ranks + (r < nelz % ranks ? 1 : 0);
        ASSERT_EQ(b.z_begin, z) << "nelz " << nelz << " ranks " << ranks << " rank " << r;
        ASSERT_EQ(b.z_end - b.z_begin, expected)
            << "nelz " << nelz << " ranks " << ranks << " rank " << r;
        z = b.z_end;
      }
      ASSERT_EQ(z, nelz);
    }
  }
}

TEST(PartitionBlocks, SlabHalosArePlaneSizedPerNeighbour) {
  // The raw-copy protocol sends a z neighbour one value per (shared
  // lattice row, own adjacent element): a plane of nelx(N+1) x nely(N+1)
  // doubles per interface.  End slabs have one interface, inner slabs two.
  const sem::BoxMeshSpec spec = spec_of(2, 3, 3, 6);
  const std::int64_t plane = (3 * 3) * (3 * 3);
  const BlockPartition three = partition_blocks(spec, 3, PartitionKind::kSlab);
  EXPECT_EQ(three.ranks[0].n_neighbors, 1);
  EXPECT_EQ(three.ranks[0].halo_doubles, plane);
  EXPECT_EQ(three.ranks[1].n_neighbors, 2);
  EXPECT_EQ(three.ranks[1].halo_doubles, 2 * plane);
  EXPECT_EQ(three.ranks[2].n_neighbors, 1);
  EXPECT_EQ(three.ranks[2].halo_doubles, plane);
  EXPECT_EQ(three.max_halo_doubles(), 2 * plane);
  EXPECT_EQ(three.max_halo_bytes(), 2 * plane * 8);

  // One rank per layer: single-layer slabs, interfaces by position.
  const sem::BoxMeshSpec layered = spec_of(4, 3, 2, 6);
  const std::int64_t layered_plane = (3 * 5) * (2 * 5);
  const BlockPartition six = partition_blocks(layered, 6, PartitionKind::kSlab);
  for (const RankBlock& b : six.ranks) {
    EXPECT_EQ(b.z_end - b.z_begin, 1);
    EXPECT_EQ(b.n_elements, 3LL * 2);
    const int interfaces = (b.rank > 0 ? 1 : 0) + (b.rank < 5 ? 1 : 0);
    EXPECT_EQ(b.n_neighbors, interfaces);
    EXPECT_EQ(b.halo_doubles, interfaces * layered_plane);
  }
}

TEST(PartitionBlocks, SingleRankHasNoHalo) {
  for (const PartitionKind kind :
       {PartitionKind::kSlab, PartitionKind::kPencil, PartitionKind::kBlock3d}) {
    const BlockPartition part = partition_blocks(spec_of(3, 4, 4, 7), 1, kind);
    ASSERT_EQ(part.ranks.size(), 1u);
    const RankBlock& b = part.ranks[0];
    EXPECT_EQ(b.n_elements, 4LL * 4 * 7);
    EXPECT_EQ(b.n_interior_elements, b.n_elements);  // no inter-rank faces
    EXPECT_EQ(b.n_neighbors, 0);
    EXPECT_EQ(b.halo_doubles, 0);
    EXPECT_EQ(part.max_halo_bytes(), 0);
  }
}

TEST(PartitionBlocks, PrimeRankCountsCoverTheBoxDisjointly) {
  for (const PartitionKind kind : {PartitionKind::kPencil, PartitionKind::kBlock3d}) {
    for (const int ranks : {3, 5, 7}) {
      const sem::BoxMeshSpec spec = spec_of(2, 8, 8, 4);
      const BlockPartition part = partition_blocks(spec, ranks, kind);
      ASSERT_EQ(part.ranks.size(), static_cast<std::size_t>(ranks));
      std::int64_t covered = 0;
      for (const RankBlock& rb : part.ranks) {
        ASSERT_GT(rb.n_elements, 0) << "empty rank in " << partition_kind_name(kind)
                                    << " at " << ranks << " ranks";
        ASSERT_EQ(rb.n_elements,
                  static_cast<std::int64_t>(rb.x_end - rb.x_begin) *
                      (rb.y_end - rb.y_begin) * (rb.z_end - rb.z_begin));
        covered += rb.n_elements;
      }
      ASSERT_EQ(covered, static_cast<std::int64_t>(global_elements(spec)));
    }
  }
}

TEST(PartitionBlocks, SingleElementDeepAxesStayUnsplit) {
  // A 1-element-deep axis can host at most one block layer; the chosen
  // factorisation must put all ranks on the other axes.
  const BlockPartition column =
      partition_blocks(spec_of(3, 1, 1, 8), 4, PartitionKind::kBlock3d);
  EXPECT_EQ(column.px, 1);
  EXPECT_EQ(column.py, 1);
  EXPECT_EQ(column.pz, 4);

  const BlockPartition sheet =
      partition_blocks(spec_of(3, 1, 4, 2), 2, PartitionKind::kPencil);
  EXPECT_EQ(sheet.px, 1);
  EXPECT_EQ(sheet.py, 2);
}

TEST(PartitionBlocks, RejectsInfeasibleSplits) {
  // More slab ranks than z element layers cannot factorise.
  try {
    (void)partition_blocks(spec_of(3, 2, 2, 4), 5, PartitionKind::kSlab);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot split more ranks than z element"),
              std::string::npos);
  }
  // A prime rank count larger than every axis cannot fit 3D blocks either.
  EXPECT_THROW((void)partition_blocks(spec_of(2, 2, 2, 2), 11, PartitionKind::kBlock3d),
               std::invalid_argument);
  EXPECT_THROW((void)partition_blocks(spec_of(2, 2, 2, 2), 0, PartitionKind::kSlab),
               std::invalid_argument);
}

/// The closed-form halo accounting in RankBlock must equal what the
/// runtime's BlockHalo actually schedules — neighbour count and the summed
/// message doubles, per rank, for every partition kind.  Prime rank counts
/// and a single-element-deep axis exercise uneven grids and edge rows.
TEST(PartitionBlocks, ClosedFormHaloMatchesBlockHaloSchedules) {
  struct Case {
    sem::BoxMeshSpec spec;
    int ranks;
    PartitionKind kind;
  };
  const Case cases[] = {
      {spec_of(2, 4, 4, 4), 3, PartitionKind::kPencil},
      {spec_of(2, 4, 4, 4), 8, PartitionKind::kBlock3d},
      {spec_of(3, 4, 1, 4), 4, PartitionKind::kBlock3d},  // 1-deep y axis
      {spec_of(2, 5, 3, 2), 5, PartitionKind::kPencil},   // prime, uneven
      {spec_of(3, 2, 3, 7), 4, PartitionKind::kSlab},     // uneven slabs
  };
  for (const Case& c : cases) {
    const sem::Mesh global = sem::box_mesh(c.spec);
    const BlockPartition part = partition_blocks(c.spec, c.ranks, c.kind);
    InProcessFabric fabric(c.ranks, global_elements(c.spec));
    spmd_run(fabric, 1, [&](const RankEnv& env) {
      RankSystem rs(global, part, env.rank, fabric, env.team_threads);
      const RankBlock& rb = part.ranks[static_cast<std::size_t>(env.rank)];
      EXPECT_EQ(rs.halo().halo_dofs(), rb.halo_doubles)
          << partition_kind_name(c.kind) << " ranks=" << c.ranks
          << " rank=" << env.rank;
      EXPECT_EQ(static_cast<int>(rs.halo().neighbor_ranks().size()), rb.n_neighbors)
          << partition_kind_name(c.kind) << " ranks=" << c.ranks
          << " rank=" << env.rank;
    });
  }
}

TEST(PartitionBlocks, InteriorElementsNeverExceedTheBlock) {
  const BlockPartition part =
      partition_blocks(spec_of(2, 4, 4, 4), 8, PartitionKind::kBlock3d);
  for (const RankBlock& rb : part.ranks) {
    EXPECT_GE(rb.n_interior_elements, 0);
    EXPECT_LT(rb.n_interior_elements, rb.n_elements);  // every block has surface
    // 2x2x2 block with three inter-rank faces: exactly one interior element.
    EXPECT_EQ(rb.n_interior_elements, 1);
  }
}

TEST(PartitionBlocks, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_partition_kind("slab"), PartitionKind::kSlab);
  EXPECT_EQ(parse_partition_kind("pencil"), PartitionKind::kPencil);
  EXPECT_EQ(parse_partition_kind("3d"), PartitionKind::kBlock3d);
  EXPECT_THROW((void)parse_partition_kind("cube"), std::invalid_argument);
  EXPECT_STREQ(partition_kind_name(PartitionKind::kPencil), "pencil");
}

}  // namespace
}  // namespace semfpga::runtime
