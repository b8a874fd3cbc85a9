// Micro-benchmarks (google-benchmark) for the hot paths underneath the
// threshold-query engine: Morton coding, box-to-range decomposition,
// derived-field kernels (per node and per row), result serialization
// and sizing, frame checksums, cache lookups and inserts, and
// friends-of-friends clustering.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <random>
#include <vector>

#include "analysis/fof.h"
#include "array/morton.h"
#include "array/slab.h"
#include "cache/mediator_cache.h"
#include "cache/semantic_cache.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
#include "datagen/turbulence.h"
#include "fields/derived_field.h"
#include "fields/differentiator.h"
#include "wire/serializer.h"

namespace turbdb {
namespace {

void BM_MortonEncode(benchmark::State& state) {
  uint32_t x = 123, y = 456, z = 789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MortonEncode3(x, y, z));
    ++x;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_MortonDecode(benchmark::State& state) {
  uint64_t code = 0x123456789ABCDEFULL & ((1ULL << 63) - 1);
  uint32_t x, y, z;
  for (auto _ : state) {
    MortonDecode3(code, &x, &y, &z);
    benchmark::DoNotOptimize(x + y + z);
    ++code;
  }
}
BENCHMARK(BM_MortonDecode);

void BM_MortonRangesForBox(benchmark::State& state) {
  const uint32_t side = static_cast<uint32_t>(state.range(0));
  const uint32_t lo[3] = {3, 5, 7};
  const uint32_t hi[3] = {3 + side, 5 + side, 7 + side};
  for (auto _ : state) {
    benchmark::DoNotOptimize(MortonRangesForBox(lo, hi));
  }
}
BENCHMARK(BM_MortonRangesForBox)->Arg(8)->Arg(32)->Arg(128);

/// Shared fixture state: a 48^3 slab of synthetic velocity with halo.
struct KernelFixture {
  KernelFixture() : geometry(GridGeometry::Isotropic(48)) {
    TurbulenceSpec spec;
    spec.num_modes = 24;
    spec.num_tubes = 8;
    SyntheticField field(spec, geometry, 3);
    const Box3 region = geometry.Bounds().Grown(4);
    slab = Slab(region, 3);
    double value[3];
    for (int64_t z = region.lo[2]; z < region.hi[2]; ++z) {
      for (int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
        for (int64_t x = region.lo[0]; x < region.hi[0]; ++x) {
          field.EvaluateAtNode(0, geometry.WrapIndex(0, x),
                               geometry.WrapIndex(1, y),
                               geometry.WrapIndex(2, z), value);
          for (int c = 0; c < 3; ++c) {
            slab.At(x, y, z, c) = static_cast<float>(value[c]);
          }
        }
      }
    }
  }
  GridGeometry geometry;
  Slab slab;
};

KernelFixture& Fixture() {
  static KernelFixture fixture;
  return fixture;
}

template <typename Kernel>
void RunKernelBench(benchmark::State& state, int order) {
  KernelFixture& fixture = Fixture();
  auto diff = Differentiator::Create(fixture.geometry, order);
  Kernel kernel;
  int64_t i = 0;
  const int64_t n = fixture.geometry.nx();
  for (auto _ : state) {
    const int64_t x = i % n;
    const int64_t y = (i / n) % n;
    const int64_t z = (i / n / n) % n;
    benchmark::DoNotOptimize(kernel.NormAt(fixture.slab, *diff, x, y, z));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_VorticityNorm(benchmark::State& state) {
  RunKernelBench<CurlField>(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_VorticityNorm)->Arg(2)->Arg(4)->Arg(8);

void BM_QCriterionNorm(benchmark::State& state) {
  RunKernelBench<QCriterionField>(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_QCriterionNorm)->Arg(4);

void BM_MagnitudeNorm(benchmark::State& state) {
  RunKernelBench<MagnitudeField>(state, 4);
}
BENCHMARK(BM_MagnitudeNorm);

/// The query engine's path: one NormsRow() call per atom-width x row.
template <typename Kernel>
void RunKernelRowBench(benchmark::State& state, int order) {
  constexpr int64_t kRow = 8;
  KernelFixture& fixture = Fixture();
  auto diff = Differentiator::Create(fixture.geometry, order);
  Kernel kernel;
  double norms[kRow];
  int64_t row = 0;
  const int64_t n = fixture.geometry.nx();
  for (auto _ : state) {
    const int64_t x = (row * kRow) % n;
    const int64_t y = (row * kRow / n) % n;
    const int64_t z = (row * kRow / n / n) % n;
    kernel.NormsRow(fixture.slab, *diff, x, kRow, y, z, norms);
    benchmark::DoNotOptimize(norms);
    benchmark::ClobberMemory();
    ++row;
  }
  state.SetItemsProcessed(state.iterations() * kRow);
}

void BM_VorticityRow(benchmark::State& state) {
  RunKernelRowBench<CurlField>(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_VorticityRow)->Arg(2)->Arg(4)->Arg(8);

void BM_QCriterionRow(benchmark::State& state) {
  RunKernelRowBench<QCriterionField>(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_QCriterionRow)->Arg(4);

void BM_MagnitudeRow(benchmark::State& state) {
  RunKernelRowBench<MagnitudeField>(state, 4);
}
BENCHMARK(BM_MagnitudeRow);

std::vector<ThresholdPoint> RandomPoints(size_t count) {
  SplitMix64 rng(99);
  std::vector<ThresholdPoint> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.push_back(MakeThresholdPoint(
        static_cast<uint32_t>(rng.NextBounded(1024)),
        static_cast<uint32_t>(rng.NextBounded(1024)),
        static_cast<uint32_t>(rng.NextBounded(1024)),
        static_cast<float>(rng.NextDouble(1.0, 300.0))));
  }
  std::sort(points.begin(), points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  return points;
}

void BM_EncodePointsBinary(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodePointsBinary(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodePointsBinary)->Arg(1000)->Arg(100000);

void BM_EncodePointsXml(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodePointsXml(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodePointsXml)->Arg(1000)->Arg(100000);

// The sizes the reply path charges, computed without encoding.
void BM_PointsXmlSize(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PointsXmlSize(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PointsXmlSize)->Arg(1000)->Arg(100000);

void BM_PointsBinarySize(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PointsBinarySize(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PointsBinarySize)->Arg(1000)->Arg(100000);

// Every frame, WAL record and atom-store record is checksummed.
void BM_Crc32(benchmark::State& state) {
  SplitMix64 rng(32);
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  for (auto& byte : data) byte = static_cast<uint8_t>(rng.NextBounded(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20);

void BM_CacheLookupHit(benchmark::State& state) {
  TransactionManager txn_manager;
  SemanticCache cache(&txn_manager, DeviceSpec::Ssd(), 1ULL << 30);
  // RandomPoints spans 1024^3: the entry holds only points of its region.
  const Box3 region = Box3::WholeGrid(1024, 1024, 1024);
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  TURBDB_CHECK_OK(
      cache.Insert("d", "f", 0, 4, region, 10.0, points));
  for (auto _ : state) {
    auto lookup = cache.Lookup("d", "f", 0, 4, region, 20.0);
    benchmark::DoNotOptimize(lookup);
  }
}
BENCHMARK(BM_CacheLookupHit)->Arg(1000)->Arg(100000);

/// A mediator-cache hit on one whole-grid entry of about 89k rows (a
/// third of a 64^3 grid, the size of the hot pool's vorticity base),
/// keeping about half of them by threshold. Arg 0 queries the entry's
/// whole region; arg 32 a 32^3 sub-box not aligned to the 8^3 cells.
void BM_MediatorCacheLookup(benchmark::State& state) {
  constexpr uint32_t kN = 64;
  SplitMix64 rng(64);
  std::vector<ThresholdPoint> points;
  for (uint32_t z = 0; z < kN; ++z) {
    for (uint32_t y = 0; y < kN; ++y) {
      for (uint32_t x = 0; x < kN; ++x) {
        if (rng.NextDouble(0.0, 1.0) >= 0.34) continue;
        points.push_back(MakeThresholdPoint(
            x, y, z, static_cast<float>(rng.NextDouble(1.0, 10.0))));
      }
    }
  }
  std::sort(points.begin(), points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  MediatorCache cache(1ULL << 30);
  const Box3 region = Box3::WholeGrid(kN, kN, kN);
  cache.Insert("d", "f", 4, 0, region, 1.0, points, cache.epoch());
  const int64_t side = state.range(0);
  const Box3 box = side == 0 ? region : Box3(5, 9, 13, 5 + side, 9 + side,
                                              13 + side);
  size_t answer = 0;
  for (auto _ : state) {
    MediatorCacheLookup lookup = cache.Lookup("d", "f", 4, 0, box, 5.5);
    answer = lookup.points.size();
    benchmark::DoNotOptimize(lookup);
  }
  state.counters["entry_rows"] = static_cast<double>(points.size());
  state.counters["answer_points"] = static_cast<double>(answer);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(answer));
}
BENCHMARK(BM_MediatorCacheLookup)->Arg(0)->Arg(32);

/// Fills a fresh node cache with state.range(0) entries of
/// state.range(1) points each, as cold thresholds leave them, and reports
/// the resident heap each entry costs (glibc mallinfo2).
void BM_CacheInsert(benchmark::State& state) {
  const int64_t entries = state.range(0);
  const auto points = RandomPoints(static_cast<size_t>(state.range(1)));
  double heap_per_entry = 0.0;
  for (auto _ : state) {
    TransactionManager txn_manager;
    SemanticCache cache(&txn_manager, DeviceSpec::Ssd(), 1ULL << 30);
    const size_t before = mallinfo2().uordblks;
    for (int64_t i = 0; i < entries; ++i) {
      const Box3 region(i * 32, 0, 0, i * 32 + 32, 32, 32);
      TURBDB_CHECK_OK(cache.Insert("isotropic", "velocity:vorticity", 0, 4,
                                   region, 1.0, points));
    }
    cache.GarbageCollect();
    heap_per_entry =
        static_cast<double>(mallinfo2().uordblks - before) / entries;
  }
  state.counters["heap_bytes_per_entry"] = heap_per_entry;
  state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_CacheInsert)
    ->Args({4000, 2})
    ->Args({4000, 32})
    ->Unit(benchmark::kMillisecond);

void BM_FriendsOfFriends(benchmark::State& state) {
  const auto raw = RandomPoints(static_cast<size_t>(state.range(0)));
  const auto points = ToFofPoints(raw, 0);
  FofParams params;
  params.linking_length = 8.0;
  params.periodic_extent = {1024.0, 1024.0, 1024.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(FriendsOfFriends(points, params));
  }
}
BENCHMARK(BM_FriendsOfFriends)->Arg(1000)->Arg(30000);

// What a FoF query runs on its threshold answer: the same points, z-sorted
// as GetThreshold returns them, clustered into records.
void BM_ClusterThresholdPoints(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  FofParams params;
  params.linking_length = 8.0;
  params.periodic_extent = {1024.0, 1024.0, 1024.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusterThresholdPoints(points, params, 1));
  }
}
BENCHMARK(BM_ClusterThresholdPoints)->Arg(1000)->Arg(30000);

}  // namespace
}  // namespace turbdb

BENCHMARK_MAIN();
