// Concurrent MCAT battery: randomized multi-thread
// register/resolve/unregister/set_attr/list storms. Deliberately NOT
// timing-labelled so the TSan CI lane runs every storm.
//
// Checking strategy: a concurrent run cannot be diffed against a
// sequential model op-for-op (interleavings differ), so the storms use
// per-thread disjoint namespaces — each thread's op sequence is then
// independent and is replayed verbatim against a fresh Mcat after the
// join; a lost or torn update shows up as a replay mismatch. Object ids
// are compared through a per-thread bijection (the catalog draws ids from
// one counter, so absolute values differ across threads). Cross-thread
// interference is exercised separately with shared-hot-key storms checked
// by invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "srb/mcat.hpp"

namespace remio::srb {
namespace {

// ---------------------------------------------------------------------------
// Op log: one thread's totally-ordered interaction with the catalog.
// ---------------------------------------------------------------------------

enum class McatOp : int {
  kRegister = 0,
  kResolve,
  kUnregister,
  kSetAttr,
  kGetAttr,
  kMakeColl,
  kCollExists,
  kList,
  kMeta,
  kCount
};

struct LoggedOp {
  McatOp op;
  std::string path;
  std::string key;    // set_attr/get_attr
  std::string value;  // set_attr
  // Result signature recorded from the DUT run.
  bool flag = false;                      // bool results / has_value
  std::optional<ObjectId> id;             // register/resolve/unregister/meta
  std::optional<std::string> attr;        // get_attr
  std::vector<std::string> listing;       // list (sorted before compare)
};

/// Maps DUT object ids to model object ids, insisting on a bijection: the
/// same DUT id must always map to the same model id and vice versa.
class IdBijection {
 public:
  void check(std::optional<ObjectId> dut, std::optional<ObjectId> model) {
    ASSERT_EQ(dut.has_value(), model.has_value());
    if (!dut) return;
    const auto [it, fresh] = fwd_.emplace(*dut, *model);
    ASSERT_EQ(it->second, *model) << "dut id " << *dut << " remapped";
    const auto [rit, rfresh] = rev_.emplace(*model, *dut);
    ASSERT_EQ(rit->second, *dut) << "model id " << *model << " remapped";
    (void)fresh;
    (void)rfresh;
  }

 private:
  std::map<ObjectId, ObjectId> fwd_;
  std::map<ObjectId, ObjectId> rev_;
};

/// Runs one random op against `m`, recording args + result signature.
LoggedOp random_op(Mcat& m, Rng& rng, const std::string& root, int keys) {
  LoggedOp lo;
  lo.op = static_cast<McatOp>(rng.below(static_cast<std::uint64_t>(McatOp::kCount)));
  const int k = static_cast<int>(rng.below(static_cast<std::uint64_t>(keys)));
  const bool deep = rng.chance(0.3);
  lo.path = deep ? root + "/sub" + std::to_string(k % 4) + "/o" + std::to_string(k)
                 : root + "/o" + std::to_string(k);
  switch (lo.op) {
    case McatOp::kRegister:
      lo.id = m.register_object(lo.path, "disk");
      lo.flag = lo.id.has_value();
      break;
    case McatOp::kResolve:
      lo.id = m.resolve(lo.path);
      lo.flag = lo.id.has_value();
      break;
    case McatOp::kUnregister:
      lo.id = m.unregister_object(lo.path);
      lo.flag = lo.id.has_value();
      break;
    case McatOp::kSetAttr:
      lo.key = "k" + std::to_string(rng.below(4));
      lo.value = "v" + std::to_string(rng.below(8));
      lo.flag = m.set_attr(lo.path, lo.key, lo.value);
      break;
    case McatOp::kGetAttr:
      lo.key = "k" + std::to_string(rng.below(4));
      lo.attr = m.get_attr(lo.path, lo.key);
      lo.flag = lo.attr.has_value();
      break;
    case McatOp::kMakeColl:
      lo.path = root + "/sub" + std::to_string(k % 4);
      lo.flag = m.make_collection(lo.path);
      break;
    case McatOp::kCollExists:
      lo.path = root + "/sub" + std::to_string(k % 4);
      lo.flag = m.collection_exists(lo.path);
      break;
    case McatOp::kList:
      lo.path = rng.chance(0.5) ? root : root + "/sub" + std::to_string(k % 4);
      lo.listing = m.list(lo.path);
      std::sort(lo.listing.begin(), lo.listing.end());
      break;
    case McatOp::kMeta: {
      const auto meta = m.meta(lo.path);
      lo.flag = meta.has_value();
      if (meta) lo.id = meta->id;
      break;
    }
    case McatOp::kCount:
      break;
  }
  return lo;
}

/// Replays a logged op against the model and asserts the same signature.
void replay_and_compare(Mcat& model, const LoggedOp& lo, IdBijection& ids) {
  switch (lo.op) {
    case McatOp::kRegister: {
      const auto id = model.register_object(lo.path, "disk");
      ASSERT_EQ(lo.flag, id.has_value()) << lo.path;
      ids.check(lo.id, id);
      break;
    }
    case McatOp::kResolve: {
      const auto id = model.resolve(lo.path);
      ASSERT_EQ(lo.flag, id.has_value()) << lo.path;
      ids.check(lo.id, id);
      break;
    }
    case McatOp::kUnregister: {
      const auto id = model.unregister_object(lo.path);
      ASSERT_EQ(lo.flag, id.has_value()) << lo.path;
      ids.check(lo.id, id);
      break;
    }
    case McatOp::kSetAttr:
      ASSERT_EQ(lo.flag, model.set_attr(lo.path, lo.key, lo.value)) << lo.path;
      break;
    case McatOp::kGetAttr: {
      const auto v = model.get_attr(lo.path, lo.key);
      ASSERT_EQ(lo.attr, v) << lo.path << " " << lo.key;
      break;
    }
    case McatOp::kMakeColl:
      ASSERT_EQ(lo.flag, model.make_collection(lo.path)) << lo.path;
      break;
    case McatOp::kCollExists:
      ASSERT_EQ(lo.flag, model.collection_exists(lo.path)) << lo.path;
      break;
    case McatOp::kList: {
      auto got = model.list(lo.path);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(lo.listing, got) << lo.path;
      break;
    }
    case McatOp::kMeta: {
      const auto meta = model.meta(lo.path);
      ASSERT_EQ(lo.flag, meta.has_value()) << lo.path;
      ids.check(lo.id, meta ? std::optional<ObjectId>(meta->id) : std::nullopt);
      break;
    }
    case McatOp::kCount:
      break;
  }
}

// ---------------------------------------------------------------------------
// 1. N threads in disjoint namespaces: each thread's log replays exactly
//    against a fresh catalog. Any cross-thread corruption (a lost update,
//    a write bleeding into another thread's namespace) shows up as a
//    replay mismatch or a TSan report.
// ---------------------------------------------------------------------------
TEST(McatConcurrent, DisjointNamespaceStormMatchesSequentialReplay) {
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  Mcat dut;
  for (int t = 0; t < kThreads; ++t)
    ASSERT_TRUE(dut.make_collection("/t" + std::to_string(t)));

  std::vector<std::vector<LoggedOp>> logs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dut, &logs, t] {
      Rng rng(0xabc0 + static_cast<std::uint64_t>(t));
      const std::string root = "/t" + std::to_string(t);
      logs[static_cast<std::size_t>(t)].reserve(kOps);
      for (int i = 0; i < kOps; ++i)
        logs[static_cast<std::size_t>(t)].push_back(
            random_op(dut, rng, root, 24));
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    Mcat model;
    ASSERT_TRUE(model.make_collection("/t" + std::to_string(t)));
    IdBijection ids;
    for (const LoggedOp& lo : logs[static_cast<std::size_t>(t)])
      replay_and_compare(model, lo, ids);
  }
}

// ---------------------------------------------------------------------------
// 2. Shared hot keys: every thread fights over the same 16 paths. No
//    sequential replay is possible; instead the final state must satisfy
//    the catalog's own invariants.
// ---------------------------------------------------------------------------
TEST(McatConcurrent, SharedHotKeyStormKeepsInvariants) {
  constexpr int kThreads = 8;
  constexpr int kOps = 3000;
  constexpr int kKeys = 16;
  Mcat dut;
  ASSERT_TRUE(dut.make_collection("/shared"));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dut, t] {
      Rng rng(0x5eed0 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const std::string p = "/shared/k" + std::to_string(rng.below(kKeys));
        switch (rng.below(5)) {
          case 0: (void)dut.register_object(p, "disk"); break;
          case 1: (void)dut.unregister_object(p); break;
          case 2: (void)dut.resolve(p); break;
          case 3: (void)dut.set_attr(p, "owner", std::to_string(t)); break;
          case 4: (void)dut.meta(p); break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Final state: object_count equals the number of resolvable keys, every
  // resolvable key has coherent meta, and listing matches resolve.
  std::size_t live = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::string p = "/shared/k" + std::to_string(k);
    const auto id = dut.resolve(p);
    if (!id) continue;
    ++live;
    const auto meta = dut.meta(p);
    ASSERT_TRUE(meta.has_value()) << p;
    EXPECT_EQ(meta->id, *id) << p;
    EXPECT_EQ(meta->resource, "disk") << p;
  }
  EXPECT_EQ(dut.object_count(), live);
  auto listed = dut.list("/shared");
  EXPECT_EQ(listed.size(), live);
}

// ---------------------------------------------------------------------------
// 3. Same-path register races: exactly one winner per round, and the
//    winner's id is the one that resolves until it is unregistered.
// ---------------------------------------------------------------------------
TEST(McatConcurrent, RegisterRaceHasExactlyOneWinnerPerRound) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  Mcat dut;
  ASSERT_TRUE(dut.make_collection("/race"));

  for (int round = 0; round < kRounds; ++round) {
    const std::string p = "/race/obj" + std::to_string(round);
    std::atomic<int> winners{0};
    std::atomic<ObjectId> winner_id{kInvalidObject};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&dut, &winners, &winner_id, &p] {
        const auto id = dut.register_object(p, "disk");
        if (id) {
          winners.fetch_add(1);
          winner_id.store(*id);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(winners.load(), 1) << p;
    ASSERT_EQ(dut.resolve(p), winner_id.load()) << p;
  }
}

// ---------------------------------------------------------------------------
// 4. Overlapping deep collection trees: concurrent make_collection calls
//    sharing ancestors must leave every ancestor existing (make_collection
//    creates several entries in one call — this is the atomicity probe for
//    that path).
// ---------------------------------------------------------------------------
TEST(McatConcurrent, OverlappingDeepCollectionTrees) {
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  Mcat dut;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dut, t] {
      Rng rng(0xdeef + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const int a = static_cast<int>(rng.below(4));
        const int b = static_cast<int>(rng.below(4));
        const std::string deep = "/trees/a" + std::to_string(a) + "/b" +
                                 std::to_string(b) + "/leaf" +
                                 std::to_string(t);
        ASSERT_TRUE(dut.make_collection(deep));
        (void)dut.register_object(deep + "/obj" + std::to_string(i % 8),
                                  "disk");
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_TRUE(dut.collection_exists("/trees"));
  for (int a = 0; a < 4; ++a) {
    ASSERT_TRUE(dut.collection_exists("/trees/a" + std::to_string(a)));
    for (int b = 0; b < 4; ++b)
      ASSERT_TRUE(dut.collection_exists("/trees/a" + std::to_string(a) +
                                        "/b" + std::to_string(b)));
  }
}

// ---------------------------------------------------------------------------
// 5. list() under churn: concurrent readers must always see a well-formed
//    set of immediate children, never a torn path or a grandchild.
// ---------------------------------------------------------------------------
TEST(McatConcurrent, ListUnderChurnSeesOnlyWellFormedChildren) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kOps = 2500;
  Mcat dut;
  ASSERT_TRUE(dut.make_collection("/churn"));
  ASSERT_TRUE(dut.make_collection("/churn/stable"));

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&dut, t] {
      Rng rng(0xc0ffee + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const std::string p = "/churn/o" + std::to_string(rng.below(32));
        if (rng.chance(0.5))
          (void)dut.register_object(p, "disk");
        else
          (void)dut.unregister_object(p);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&dut, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto entries = dut.list("/churn");
        bool saw_stable = false;
        for (const auto& e : entries) {
          ASSERT_EQ(e.compare(0, 7, "/churn/"), 0) << e;
          ASSERT_EQ(e.find('/', 7), std::string::npos) << e;
          if (e == "/churn/stable") saw_stable = true;
        }
        ASSERT_TRUE(saw_stable);  // untouched entries are always visible
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : readers) th.join();
}

}  // namespace
}  // namespace remio::srb
