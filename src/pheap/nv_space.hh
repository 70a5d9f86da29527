/**
 * @file
 * Abstraction over a byte-addressable NV region.
 *
 * The persistent heap and the KV store run unchanged over either
 * substrate: the simulated manager (writes are charged to the MMU
 * model and tracked for durability) or the write-protect runtime (the
 * hardware faults do the tracking, so the notes are no-ops).
 */

#ifndef VIYOJIT_PHEAP_NV_SPACE_HH
#define VIYOJIT_PHEAP_NV_SPACE_HH

#include <cstdint>

#include "common/types.hh"
#include "core/manager.hh"

namespace viyojit::pheap
{

/** Byte-addressable NV region with access accounting hooks. */
class NvSpace
{
  public:
    virtual ~NvSpace() = default;

    /** Base of the region in host memory. */
    virtual char *base() = 0;
    virtual const char *base() const = 0;

    /** Region size in bytes. */
    virtual std::uint64_t size() const = 0;

    /** Account a write of [off, off+len); called before the store. */
    virtual void noteWrite(std::uint64_t off, std::uint64_t len) = 0;

    /** Account a read of [off, off+len); called before the load. */
    virtual void noteRead(std::uint64_t off, std::uint64_t len) = 0;
};

/** NvSpace over a vmmap'd region of a simulated ViyojitManager. */
class SimNvSpace : public NvSpace
{
  public:
    /**
     * @param manager the simulated NV-DRAM manager.
     * @param region_base address returned by vmmap.
     * @param bytes region length.
     */
    SimNvSpace(core::ViyojitManager &manager, Addr region_base,
               std::uint64_t bytes)
        : manager_(manager), base_(region_base), size_(bytes)
    {}

    char *base() override { return manager_.rawData(base_); }

    const char *
    base() const override
    {
        return manager_.rawData(base_);
    }

    std::uint64_t size() const override { return size_; }

    void
    noteWrite(std::uint64_t off, std::uint64_t len) override
    {
        manager_.write(base_ + off, len);
    }

    void
    noteRead(std::uint64_t off, std::uint64_t len) override
    {
        manager_.read(base_ + off, len);
    }

  private:
    core::ViyojitManager &manager_;
    Addr base_;
    std::uint64_t size_;
};

/** NvSpace over plain host memory (runtime library / tests). */
class PlainNvSpace : public NvSpace
{
  public:
    PlainNvSpace(char *base, std::uint64_t bytes)
        : base_(base), size_(bytes)
    {}

    char *base() override { return base_; }
    const char *base() const override { return base_; }
    std::uint64_t size() const override { return size_; }
    void noteWrite(std::uint64_t, std::uint64_t) override {}
    void noteRead(std::uint64_t, std::uint64_t) override {}

  private:
    char *base_;
    std::uint64_t size_;
};

} // namespace viyojit::pheap

#endif // VIYOJIT_PHEAP_NV_SPACE_HH
