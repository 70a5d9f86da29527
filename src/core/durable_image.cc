#include "core/durable_image.hh"

#include "common/checksum.hh"
#include "common/pagezip.hh"
#include "core/controller.hh"

namespace viyojit::core
{

MismatchClass
classifyMismatch(const CommitRecord &record,
                 std::uint64_t last_sealed_epoch)
{
    if (record.state == CommitState::pending ||
        record.epoch > last_sealed_epoch)
        return MismatchClass::torn;
    return record.epoch == last_sealed_epoch ? MismatchClass::stale
                                             : MismatchClass::silent;
}

const char *
mismatchClassName(MismatchClass cls)
{
    static constexpr const char *kNames[] = {
        "torn flush tail", "stale epoch", "silent corruption"};
    return kNames[static_cast<unsigned>(cls)];
}

void
MismatchCounts::count(MismatchClass cls)
{
    ++checksumMismatches;
    ++(cls == MismatchClass::torn    ? tornRunPages
       : cls == MismatchClass::stale ? staleEpochPages
                                     : silentCorruptPages);
}

bool
verifySlot(const void *slot, const CommitRecord &record,
           std::uint64_t page_size, void *raw)
{
    if (record.storedLen == 0)
        return common::crc32c(slot, page_size) == record.crc;
    return record.storedLen <= page_size &&
           common::pagezipDecompress(slot, record.storedLen, raw,
                                     page_size) &&
           common::crc32c(raw, page_size) == record.crc;
}

bool
scrubShouldYield(const DirtyBudgetController &controller)
{
    return controller.tracker().count() + 2 >= controller.entitlement();
}

} // namespace viyojit::core
