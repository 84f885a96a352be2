// Fuzz target: svc::Checkpoint::from_binary, the campaign checkpoint
// reader behind `offramps_fleetd --resume`.
//
// A checkpoint is read back from disk after a crash, so it may be torn,
// corrupt, version-skewed, or written for another campaign.  The bounded
// reader must reject every malformed file with offramps::Error - resume
// then fails cleanly with exit 2 - and must never over-read, allocate
// from a lying count, or accept trailing garbage.
#include <cstddef>
#include <cstdint>

#include "sim/error.hpp"
#include "svc/checkpoint.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 1 << 20) return 0;
  try {
    const offramps::svc::Checkpoint ck =
        offramps::svc::Checkpoint::from_binary(data, size);
    for (const offramps::svc::RefEntry& ref : ck.references) {
      (void)ref.golden.transactions.size();
      (void)ref.golden_power.size();
      (void)ref.golden_acoustic.size();
      (void)ref.golden_vibration.size();
    }
    (void)ck.done.size();
  } catch (const offramps::Error&) {
    // Malformed checkpoint, rejected by contract.
  }
  return 0;
}
