// Table 4 — pruning effectiveness on the baseball dataset: average and
// minimum percentage of candidate entities pruned per decision-tree node,
// for k-LP with k = 2 (the paper reports "almost the same" for k = 3).

#include "bench_common.h"
#include "relational/query_sets.h"

using namespace setdisc;
using namespace setdisc::bench;

int main() {
  Banner("Table 4", "% of entities pruned at decision-tree nodes (k-LP, k=2)");

  Table people = GeneratePeople();
  struct PaperRow {
    const char* id;
    double paper_avg, paper_min;  // percentages
  };
  const PaperRow paper[] = {{"T1", 97.3, 90.1}, {"T2", 99.4, 94.6},
                            {"T3", 99.1, 96.5}, {"T4", 99.7, 98.0},
                            {"T5", 88.5, 30.6}, {"T6", 99.7, 98.1},
                            {"T7", 99.9, 99.5}};

  // "dup avg%" is ours only: the share of a node's candidates skipped
  // because they split it exactly like an earlier candidate. Those are
  // already inside "pruned" (never fully evaluated); the column says how
  // much of the pruning the duplicate skip does.
  TablePrinter t({"target", "paper avg%", "ours avg%", "paper min%",
                  "ours min%", "dup avg%", "nodes"});
  std::vector<TargetQuery> targets = MakeTargetQueries(people);
  for (size_t i = 0; i < targets.size(); ++i) {
    QueryDiscoveryInstance inst = BuildQueryDiscoveryInstance(
        people, targets[i].query, 2, /*seed=*/500 + i);
    SubCollection full = SubCollection::Full(&inst.collection);

    KlpOptions opts = KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
    opts.record_per_node_stats = true;
    KlpSelector klp(opts);
    DecisionTree tree = DecisionTree::Build(full, klp);

    RunningStat pruned, duplicate;
    for (const NodeStats& node : klp.stats().per_node) {
      // Nodes with a single candidate entity offer nothing to prune; the
      // percentage is only meaningful where there is a choice.
      if (node.candidates <= 1) continue;
      pruned.Add(100.0 * node.PrunedFraction());
      duplicate.Add(100.0 * static_cast<double>(node.pruned_by_duplicate) /
                    static_cast<double>(node.candidates));
    }
    t.AddRow({targets[i].id, Format("%.1f", paper[i].paper_avg),
              Format("%.1f", pruned.mean()), Format("%.1f", paper[i].paper_min),
              Format("%.1f", pruned.min()), Format("%.1f", duplicate.mean()),
              Format("%lld", static_cast<long long>(pruned.count()))});
  }
  t.Print(std::cout);
  std::cout << "\nReading: at nearly every node the k-step bound computation "
               "is skipped for >90% of candidate entities (Lemma 4.4 + "
               "Eqs. 11-14); small nodes near the leaves set the minimum.\n";
  return 0;
}
