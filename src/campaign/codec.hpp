// Lossless JSON codec for the campaign types that leave the process: the
// CampaignConfig a broker sends its workers, and the SeedResult and
// MetricsSnapshot that come back (docs/DISTRIBUTED.md) or are journaled
// (docs/JOURNAL.md). Every uint64 survives exactly; the timing-only doubles
// round-trip to 17 significant digits. Decoders throw common::DecodeError.
#pragma once

#include <string>

#include "campaign/campaign.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace esv::campaign {

/// Omits seed_lo/seed_hi/workers (the distributed wire assigns seed ranges
/// per chunk; serve frames carry them beside "config") and the host-side
/// journaling and resume hooks.
std::string config_to_json(const CampaignConfig& config);
CampaignConfig config_from_json(const common::Json& json);

std::string seed_result_to_json(const SeedResult& result);
SeedResult seed_result_from_json(const common::Json& json);

std::string metrics_to_json(const obs::MetricsSnapshot& snapshot);
obs::MetricsSnapshot metrics_from_json(const common::Json& json);

}  // namespace esv::campaign
