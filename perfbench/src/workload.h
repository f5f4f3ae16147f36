#pragma once

/// \file workload.h
/// The benchmark's workloads and the machinery every one of them shares:
/// the collection file, the serving stack a `setdisc_cli --serve` process
/// builds at boot, the seeded conversation list, and the closed-loop
/// clients that drive it — over loopback TCP or straight into the manager.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "collection/inverted_index.h"
#include "collection/set_collection.h"
#include "core/discovery.h"
#include "core/selector.h"
#include "data/synthetic.h"
#include "data/webtables.h"
#include "net/server.h"
#include "service/selection_cache.h"
#include "service/session_manager.h"
#include "service/session_store.h"
#include "tracing.h"

namespace perfbench {

using setdisc::EntityId;
using setdisc::SetId;

/// How a workload's conversations pick their initial examples and targets.
enum class InputShape {
  kSeedPairs,    ///< §5.2.1: a distinct 2-entity seed pair per conversation
  kHotExample,   ///< every conversation starts from the same example
  kWholeCollection,  ///< no examples: every set is a candidate
};

struct WorkloadSpec {
  std::string name;

  // The collection, generated once into the data directory.
  bool webtables = false;
  setdisc::WebTablesConfig web;
  setdisc::SyntheticConfig synth;
  std::string file;  ///< collection file name (text format)

  InputShape shape = InputShape::kWholeCollection;
  std::function<std::unique_ptr<setdisc::EntitySelector>()> selector;
  bool cache = false;
  bool store = false;
  double dont_know_rate = 0.0;

  int clients = 2;
  size_t pool_threads = 2;
  /// Conversations kept open per client: the clients share one pool of
  /// clients × this many open conversations and step a seeded-random idle
  /// one each turn (1 = each client runs one conversation at a time).
  int open_per_client = 1;
  /// Registry bound (0 = unlimited); below the open count, steps land on
  /// spilled sessions.
  size_t max_sessions = 0;
  /// Conversations per measured second: a run does round(rate × seconds)
  /// conversations, a fixed amount of work for a given seed.
  double conversations_per_second = 100;
  /// Percentile step_tail_us reports: the highest one that repeats run to
  /// run on this workload. A tail percentile that falls where the step-time
  /// distribution is sparse (between the cache-hit and cache-miss modes, or
  /// between cheap and expensive recounts) jumps with small shifts of host
  /// speed.
  double step_tail_percentile = 90;
};

/// Seed pairs in paper_webtables_2lp's fixed pool: one per conversation of
/// a 20-second run.
inline constexpr size_t kSeedPairPool = 2400;

/// The three workloads, by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One seeded conversation: what the user starts from and what they want.
struct Conversation {
  std::vector<EntityId> initial;
  SetId target = setdisc::kNoSet;
  uint64_t oracle_seed = 0;
};

/// A collection as a serving process holds it.
struct Loaded {
  setdisc::SetCollection collection;
  std::unique_ptr<setdisc::InvertedIndex> index;
};

/// Seeded inputs derived from the loaded collection.
std::vector<Conversation> MakeConversations(const WorkloadSpec& spec,
                                            const Loaded& loaded, size_t count,
                                            uint64_t seed);

/// Writes the workload's collection file into `data_dir` unless it exists.
/// Returns the file's path.
std::string EnsureCollectionFile(const WorkloadSpec& spec,
                                 const std::string& data_dir);

/// Loads the collection file the way `setdisc_cli --serve` does.
std::unique_ptr<Loaded> LoadCollection(const std::string& path,
                                       double* load_s, double* index_s);

/// The serving stack, torn down in reverse construction order.
struct Serving {
  std::atomic<uint64_t> factory_calls{0};
  std::unique_ptr<setdisc::SelectionCache> cache;
  std::unique_ptr<TimedFs> fs;
  std::unique_ptr<setdisc::SessionStore> store;
  std::unique_ptr<setdisc::SessionManager> manager;
  std::unique_ptr<setdisc::net::DiscoveryServer> server;
};

/// Builds the serving stack over `loaded`: the cache, the store opened
/// (and replayed) from `store_dir` when the workload has one, the manager,
/// and — with `with_server` — a started DiscoveryServer. With `traced`, the
/// selector factory and the store's filesystem go through the forwarding
/// wrappers. `*store_open_s` receives the store's Open time.
std::unique_ptr<Serving> StartServing(const WorkloadSpec& spec,
                                      const Loaded& loaded,
                                      const std::string& store_dir,
                                      bool with_server, bool traced,
                                      double* store_open_s);

/// A conversation's final state as the client saw it.
struct Outcome {
  bool done = false;
  bool ok = false;  ///< finished on exactly the oracle's target
  uint32_t questions = 0;
  std::vector<std::pair<EntityId, uint8_t>> transcript;  ///< kept if sampled
};

/// A conversation left open by the prep phase.
struct OpenConversation {
  size_t index = 0;
  uint64_t id = 0;
  EntityId question = setdisc::kNoEntity;
  /// Questions the prep phase answered, in order: a pass replays them
  /// through a fresh oracle to bring it to the same state.
  std::vector<EntityId> asked;
};

/// Steps the first `count` conversations of a store workload part-way (3 to
/// 8 answers, seeded) through an in-process manager writing to `store_dir`,
/// then drops the manager: what remains is a store of half-answered
/// conversations for set-up to replay.
std::vector<OpenConversation> PrepOpenConversations(
    const WorkloadSpec& spec, const Loaded& loaded,
    const std::vector<Conversation>& conversations, size_t count,
    const std::string& store_dir, uint64_t seed);

/// What one measured pass produced.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> creates;  ///< first-question round trips, µs
  std::vector<double> steps;    ///< answer round trips, µs
  /// Per finished conversation, its mean Answer round trip over this pass.
  std::vector<double> mean_steps;
  uint64_t completed = 0;  ///< conversations that finished on their target
  uint64_t transport_errors = 0;
  std::vector<Outcome> outcomes;  ///< indexed like the conversation list
};

/// Runs every conversation to completion with `spec.clients` closed-loop
/// clients. Conversations in `open` start already open (prep phase); the
/// rest are created, in list order, whenever the shared pool has room. `sampled[i]` keeps conversation
/// i's transcript. With `tcp_port` nonzero the clients speak the wire
/// protocol to that port; otherwise they call `manager` directly.
PassResult RunPass(const WorkloadSpec& spec,
                   const setdisc::SetCollection& collection,
                   const std::vector<Conversation>& conversations,
                   const std::vector<OpenConversation>& open,
                   const std::vector<bool>& sampled, uint16_t tcp_port,
                   setdisc::SessionManager* manager, bool traced,
                   setdisc::SessionStore* checkpoint_store, uint64_t seed);

}  // namespace perfbench
