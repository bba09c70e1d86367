// Fuzzes NFA deserialization (src/nfa/serializer.h). Serialized NFAs cross
// the shuffle, so DeserializeNfa must reject every malformed byte string
// with NfaParseError — never crash, hang, or over-allocate. Inputs that do
// parse must normalize: serialize(parse(x)) is a fixed point of
// parse∘serialize.
//
// The reduce decodes the same bytes through NfaPartition instead, as one
// weighted record appended behind NFAs already in the arena. That path must
// accept and reject exactly the inputs DeserializeNfa does, leave the arena
// as it was on rejection, and, on accepted input with a small enough
// language, mine (σ = 1, every pattern) exactly what MineNfas mines over
// the deserialized NFA.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/dist/dcand_miner.h"
#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"

namespace {

// Mining enumerates every accepted prefix; inputs whose label-expanded
// prefixes exceed this are only decoded.
constexpr uint64_t kMaxPrefixes = 10'000;

// Label-expanded paths from `q`, saturating at kMaxPrefixes.
uint64_t CountPrefixes(const dseq::NfaPartition& partition, dseq::StateId q,
                       std::vector<uint64_t>* memo, dseq::StateId base) {
  uint64_t& slot = (*memo)[q - base];
  if (slot != 0) return slot;
  uint64_t total = 1;
  for (const dseq::NfaPartition::Edge& e : partition.EdgesOf(q)) {
    uint64_t below = CountPrefixes(partition, e.target, memo, base);
    total += below * e.items_size;
    if (total > kMaxPrefixes) {
      total = kMaxPrefixes + 1;
      break;
    }
  }
  slot = total;
  return slot;
}

// The NFA already in the arena when the input is appended, so the input's
// states, edges and items land at non-zero offsets.
dseq::OutputNfa LeadingNfa() {
  dseq::OutputNfa nfa;
  nfa.AddLabelString({{1, 2}, {3}});
  nfa.AddLabelString({{2}});
  nfa.Minimize();
  return nfa;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  dseq::OutputNfa nfa;
  bool accepted = true;
  try {
    nfa = dseq::DeserializeNfa(input);
  } catch (const dseq::NfaParseError&) {
    accepted = false;  // malformed input correctly rejected
  }

  static const dseq::OutputNfa leading = LeadingNfa();
  dseq::NfaPartition partition;
  partition.Append(leading, 1);
  std::string record = "\x01";  // varint weight 1
  record.append(input);
  bool partition_accepted = true;
  try {
    partition.AppendRecord(record);
  } catch (const dseq::NfaParseError&) {
    partition_accepted = false;
  }
  if (accepted != partition_accepted) __builtin_trap();
  if (!accepted) {
    if (partition.size() != 1) __builtin_trap();  // rejection rolled back
    return 0;
  }

  // Parsed NFAs re-serialize deterministically: one round of normalization
  // must reach a fixed point, or shuffle aggregation of identical NFAs
  // breaks.
  std::string first = dseq::SerializeNfa(nfa);
  std::string second = dseq::SerializeNfa(dseq::DeserializeNfa(first));
  if (first != second) __builtin_trap();
  if (dseq::SerializeNfa(partition.Extract(1)) != first) __builtin_trap();

  const dseq::StateId base = partition.Root(1);
  std::vector<uint64_t> memo(nfa.num_states(), 0);
  if (CountPrefixes(partition, base, &memo, base) > kMaxPrefixes) return 0;
  dseq::MiningResult from_partition =
      dseq::MineNfas(partition, /*sigma=*/1, dseq::kNoItem);
  dseq::MiningResult from_nfas =
      dseq::MineNfas({leading, nfa}, {1, 1}, /*sigma=*/1, dseq::kNoItem);
  if (from_partition != from_nfas) __builtin_trap();
  return 0;
}
