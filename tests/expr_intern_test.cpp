// Hash-consing interner (src/symex/intern.*): structurally equal
// expressions must be pointer-identical, fingerprints must refine key
// equality (equal keys => equal fingerprints), struct_eq must agree with
// string-key equality on randomized DAGs, concurrent builders must agree
// on one canonical node per structure (the TSan target for the sharded
// table), dropped nodes must leave the table, and the
// collect_vars/substitute memoization must keep deeply
// shared map-store DAGs linear — the pre-memoization recursion walks
// every path through the DAG and would not finish within the age of the
// universe on the chains below.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "symex/expr.h"
#include "symex/intern.h"

namespace nfactor::symex {
namespace {

using lang::BinOp;

TEST(Intern, StructurallyEqualBuildsSharePointer) {
  const SymRef a =
      make_bin(BinOp::kEq, make_var("pkt.dport", VarClass::kPkt), make_int(80));
  const SymRef b =
      make_bin(BinOp::kEq, make_var("pkt.dport", VarClass::kPkt), make_int(80));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_TRUE(struct_eq(a, b));
  EXPECT_EQ(a->fp, b->fp);

  // A differing leaf anywhere breaks the sharing.
  const SymRef c =
      make_bin(BinOp::kEq, make_var("pkt.dport", VarClass::kPkt), make_int(81));
  EXPECT_NE(a.get(), c.get());
  EXPECT_FALSE(struct_eq(a, c));

  // var_class is part of interned identity even though key() does not
  // render it: same-named variables of different classes never collapse.
  const SymRef as_cfg = make_var("pkt.dport", VarClass::kCfg);
  const SymRef as_pkt = make_var("pkt.dport", VarClass::kPkt);
  EXPECT_NE(as_cfg.get(), as_pkt.get());
  EXPECT_NE(as_cfg->fp, as_pkt->fp);
}

TEST(Intern, BuilderStatsCountHitsAndNodes) {
  const InternStats before = intern_stats();
  const SymRef fresh = make_call("intern_stats_probe", {make_int(123454321)});
  const SymRef again = make_call("intern_stats_probe", {make_int(123454321)});
  (void)fresh;
  (void)again;
  const InternStats after = intern_stats();
  EXPECT_GT(after.nodes, before.nodes);
  EXPECT_GT(after.bytes, before.bytes);
  EXPECT_GT(after.hits, before.hits);  // `again` hit `fresh`'s node
  EXPECT_GE(after.live, 1u);
  EXPECT_GE(after.buckets, 1u);
  EXPECT_FALSE(intern_summary().empty());
}

TEST(Intern, DroppedNodesLeaveTheTable) {
  // A node's entry (and its bucket, once empty) goes with the node's
  // last SymRef, so the table tracks the live graph, not every node
  // ever built.
  constexpr int kExprs = 200000;
  const InternStats before = intern_stats();
  {
    std::vector<SymRef> held;
    held.reserve(kExprs);
    const SymRef probe = make_var("intern_drop_probe", VarClass::kPkt);
    for (int i = 0; i < kExprs; ++i) {
      held.push_back(make_bin(BinOp::kAdd, probe, make_int(1000000000 + i)));
    }
    const InternStats built = intern_stats();
    // Each sum holds its int leaf: two live nodes per expression.
    EXPECT_GE(built.live, before.live + 2 * kExprs);
    EXPECT_GE(built.buckets, before.buckets + 2 * kExprs);
  }
  const InternStats after = intern_stats();
  EXPECT_EQ(after.live, before.live);
  EXPECT_EQ(after.buckets, before.buckets);
  EXPECT_GE(after.nodes, before.nodes + 2 * kExprs);
}

/// Random expression over a small pool of variables (one fixed class per
/// name — key() does not render the class, so mixed classes would make
/// key equality coarser than structural identity by design).
SymRef random_expr(std::mt19937_64& rng, int depth) {
  switch (depth <= 0 ? rng() % 3 : rng() % 7) {
    case 0:
      return make_int(static_cast<Int>(rng() % 16));
    case 1:
      return make_var("v" + std::to_string(rng() % 5), VarClass::kPkt);
    case 2:
      return make_var("s" + std::to_string(rng() % 3), VarClass::kState);
    case 3:
      return make_un(lang::UnOp::kNeg, random_expr(rng, depth - 1));
    case 4: {
      static const BinOp ops[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul,
                                  BinOp::kBitAnd, BinOp::kEq, BinOp::kLt};
      return make_bin(ops[rng() % 6], random_expr(rng, depth - 1),
                      random_expr(rng, depth - 1));
    }
    case 5:
      return make_contains(make_map_base("m" + std::to_string(rng() % 2)),
                           random_expr(rng, depth - 1));
    default:
      return make_map_get(make_map_base("m" + std::to_string(rng() % 2)),
                          random_expr(rng, depth - 1));
  }
}

TEST(Intern, StructEqAgreesWithKeyEqualityOnRandomizedDag) {
  std::mt19937_64 rng(0x1337);
  std::map<std::string, SymRef> by_key;
  std::map<std::uint64_t, std::string> fp_to_key;
  int built = 0;
  while (built < 10000) {
    const SymRef e = random_expr(rng, 4);
    ++built;

    // Equal keys <=> struct_eq <=> pointer identity.
    const auto [it, first_sight] = by_key.emplace(e->key(), e);
    if (!first_sight) {
      EXPECT_TRUE(struct_eq(e, it->second)) << e->key();
      EXPECT_EQ(e->fp, it->second->fp) << e->key();
      EXPECT_EQ(e.get(), it->second.get()) << e->key();
    } else {
      // fingerprint != => key !=, contrapositive bookkeeping: a
      // fingerprint maps to exactly one key.
      const auto [fit, fresh_fp] = fp_to_key.emplace(e->fp, e->key());
      EXPECT_TRUE(fresh_fp) << "fp collision between distinct structures: "
                            << fit->second << " vs " << e->key();
    }
  }
  // Distinct keys must never share a struct_eq verdict: spot-check pairs.
  std::vector<SymRef> pool;
  for (const auto& [k, v] : by_key) {
    (void)k;
    pool.push_back(v);
    if (pool.size() >= 200) break;
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      EXPECT_FALSE(struct_eq(pool[i], pool[j]))
          << pool[i]->key() << " vs " << pool[j]->key();
    }
  }
}

TEST(Intern, ConcurrentBuildersAgreeOnCanonicalNodes) {
  // 4 threads build the identical expression sequence; they must end up
  // with pointer-identical results. Run under TSan this
  // is the data-race check for the sharded intern table and the lazy
  // key() publication (threads race to render the same keys).
  constexpr int kThreads = 4;
  constexpr int kExprs = 2000;
  std::vector<std::vector<SymRef>> built(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&built, t] {
      std::mt19937_64 rng(0xABCDEF);  // same seed: same structures
      built[static_cast<std::size_t>(t)].reserve(kExprs);
      for (int i = 0; i < kExprs; ++i) {
        const SymRef e = random_expr(rng, 4);
        (void)e->key();  // race the lazy key render on shared nodes
        built[static_cast<std::size_t>(t)].push_back(e);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) {
    for (int i = 0; i < kExprs; ++i) {
      const auto& a = built[0][static_cast<std::size_t>(i)];
      const auto& b = built[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      EXPECT_TRUE(struct_eq(a, b)) << "thread " << t << " expr " << i;
      EXPECT_EQ(a->key(), b->key());
      ASSERT_EQ(a.get(), b.get()) << "thread " << t << " expr " << i;
    }
  }
}

TEST(Intern, ConcurrentChurnKeepsOneNodePerStructure) {
  // 4 threads build and drop the same few structures, so nodes die
  // while other threads look them up: a lookup that meets a dying node
  // must intern a fresh one, and two refs held at once must still agree.
  // Under TSan this is the race check for the unlinking deleter.
  constexpr int kThreads = 4;
  constexpr int kRounds = 5000;
  const InternStats before = intern_stats();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mismatches, t] {
      for (int i = 0; i < kRounds; ++i) {
        const auto build = [i] {
          return make_bin(BinOp::kMul, make_var("intern_churn_probe", VarClass::kPkt),
                          make_int(i % 8));
        };
        const SymRef a = build();
        const SymRef b = build();
        if (a.get() != b.get()) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const InternStats after = intern_stats();
  EXPECT_EQ(after.live, before.live);
  EXPECT_EQ(after.buckets, before.buckets);
}

/// Deep map-store chain where every level re-references the previous
/// level twice (store key and stored value both contain the tail), so
/// the number of *paths* through the DAG doubles per level: 2^60 paths,
/// 181 unique nodes. Any walk without node-identity memoization times
/// out here; the memoized walks are instant.
SymRef deep_shared_chain(int depth) {
  SymRef m = make_map_base("flows");
  const SymRef k = make_var("pkt.ip_src", VarClass::kPkt);
  for (int i = 0; i < depth; ++i) {
    const SymRef tail_get = make_map_get(m, make_bin(BinOp::kAdd, k, make_int(i + 1)));
    m = make_map_store(m, tail_get, make_bin(BinOp::kAdd, tail_get, make_int(1)));
  }
  return m;
}

TEST(Intern, CollectVarsIsLinearOnSharedDags) {
  const SymRef chain = deep_shared_chain(60);
  std::map<std::string, VarClass> vars;
  collect_vars(chain, vars);  // pre-memoization: 2^60 recursive calls
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars.begin()->first, "pkt.ip_src");
  EXPECT_EQ(vars.begin()->second, VarClass::kPkt);
}

TEST(Intern, SubstituteIsLinearOnSharedDags) {
  const SymRef chain = deep_shared_chain(60);
  const SymRef replacement = make_var("pkt2.ip_src", VarClass::kPkt);
  const SymRef rewritten =
      substitute(chain, {{"pkt.ip_src", replacement}});
  std::map<std::string, VarClass> vars;
  collect_vars(rewritten, vars);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars.begin()->first, "pkt2.ip_src");

  // Substituting a name the DAG does not mention returns the same node.
  const SymRef unchanged =
      substitute(chain, {{"pkt.absent", replacement}});
  EXPECT_EQ(unchanged.get(), chain.get());
}

}  // namespace
}  // namespace nfactor::symex
