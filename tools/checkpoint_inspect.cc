// checkpoint_inspect — dump a shard-engine checkpoint journal as JSON.
//
//   $ checkpoint_inspect journal=run.ckpt
//   $ checkpoint_inspect journal=run.ckpt compact=1
//
// Prints the journal header, one entry per recovered market record, and —
// when the journal has a torn or corrupt tail — why reading stopped and at
// which byte offset, so an operator can see exactly what a resume would
// keep. Corruption is reported, never fatal; the exit code is non-zero only
// when the file cannot be read as a journal at all (see status.h: 2 missing
// file, 1 not a journal, 3 unreadable schema version).
#include <iostream>
#include <string>

#include "src/common/json.h"
#include "src/common/options.h"
#include "src/common/status.h"
#include "src/core/checkpoint.h"

namespace pad {
namespace {

// Digests and fingerprints are 64-bit; JSON numbers are doubles, so emit
// them as hex strings to keep every bit.
JsonValue Hex64(uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx", static_cast<unsigned long long>(value));
  return JsonValue(buffer);
}

int RunTool(const std::string& path, bool compact) {
  const StatusOr<CheckpointContents> read = ReadCheckpoint(path);
  if (!read.ok()) {
    std::cerr << "checkpoint_inspect: " << read.status().ToString() << "\n";
    return ExitCodeFor(read.status());
  }
  const CheckpointContents& contents = *read;

  JsonValue root = JsonValue::Object();
  root.Set("path", JsonValue(path));
  root.Set("valid_bytes", JsonValue(contents.valid_bytes));
  root.Set("truncated", JsonValue(contents.truncated()));
  if (contents.truncated()) {
    root.Set("truncation_reason", JsonValue(contents.truncation_reason));
    // Resume keeps [0, valid_bytes) and truncates the rest.
    root.Set("first_corrupt_offset", JsonValue(contents.valid_bytes));
  }
  root.Set("has_header", JsonValue(contents.has_header));
  if (contents.has_header) {
    const CheckpointHeader& header = contents.header;
    JsonValue json_header = JsonValue::Object();
    json_header.Set("schema_version", JsonValue(static_cast<int64_t>(header.schema_version)));
    json_header.Set("config_fingerprint", Hex64(header.config_fingerprint));
    json_header.Set("population_seed", Hex64(header.population_seed));
    json_header.Set("total_users", JsonValue(header.total_users));
    json_header.Set("num_markets", JsonValue(static_cast<int64_t>(header.num_markets)));
    json_header.Set("run_baseline", JsonValue(header.run_baseline));
    json_header.Set("event_digests", JsonValue(header.event_digests));
    root.Set("header", json_header);
  }

  JsonValue markets = JsonValue::Array();
  for (const MarketRecord& record : contents.markets) {
    JsonValue market = JsonValue::Object();
    market.Set("market", JsonValue(static_cast<int64_t>(record.market)));
    market.Set("sessions", JsonValue(record.sessions));
    market.Set("pad_digest", Hex64(record.pad_digest));
    if (contents.header.run_baseline) {
      market.Set("baseline_digest", Hex64(record.baseline_digest));
    }
    if (contents.header.event_digests) {
      market.Set("event_digest", Hex64(record.event_digest));
    }
    market.Set("pad_billed_revenue", JsonValue(record.pad.ledger.billed_revenue));
    market.Set("pad_ad_energy_j", JsonValue(record.pad.energy.AdEnergyJ()));
    market.Set("generate_seconds", JsonValue(record.generate_seconds));
    market.Set("simulate_seconds", JsonValue(record.simulate_seconds));
    markets.Append(market);
  }
  root.Set("recovered_markets", JsonValue(static_cast<int64_t>(contents.markets.size())));
  root.Set("markets", markets);

  std::cout << root.Dump(compact ? 0 : 2) << "\n";
  return 0;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  std::string error;
  const auto options = pad::Options::Parse(argc, argv, &error);
  if (!options.has_value()) {
    std::cerr << "checkpoint_inspect: " << error << "\n";
    return 1;
  }
  const std::string path = options->GetString("journal", "");
  const bool compact = options->GetBool("compact", false);
  if (const std::string check = options->Check(); !check.empty()) {
    std::cerr << "checkpoint_inspect: " << check << "\n";
    return 1;
  }
  if (path.empty()) {
    std::cerr << "usage: checkpoint_inspect journal=<path> [compact=1]\n";
    return 1;
  }
  return pad::RunTool(path, compact);
}
