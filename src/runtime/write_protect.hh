/**
 * @file
 * The runtime's write-protect primitive: userfaultfd write-protect
 * where the kernel grants it, per-range mprotect where it does not.
 *
 * Viyojit traps the first write to every clean page (paper §4–5).
 * With userfaultfd-wp that protection is a PTE bit set and cleared by
 * one UFFDIO_WRITEPROTECT ioctl; the VMA is never split and no
 * mmap_lock is taken for write.  UFFD_FEATURE_SIGBUS turns each
 * write-protect fault into a SIGBUS (si_code BUS_ADRERR) on the
 * faulting thread, so the fault dispatcher's handler, sigaltstack and
 * pathlint contracts apply unchanged.  The substrate is chosen once
 * per region at arm() from what the kernel grants (DESIGN.md §5.1).
 */

#ifndef VIYOJIT_RUNTIME_WRITE_PROTECT_HH
#define VIYOJIT_RUNTIME_WRITE_PROTECT_HH

#include <cstdint>

namespace viyojit::runtime
{

class WriteProtect
{
  public:
    WriteProtect() = default;
    ~WriteProtect() { close(); }

    WriteProtect(const WriteProtect &) = delete;
    WriteProtect &operator=(const WriteProtect &) = delete;

    /**
     * Pick the substrate for the mapping [base, base + len) and
     * write-protect all of it.  userfaultfd-wp is used only when the
     * syscall, UFFD_FEATURE_SIGBUS | UFFD_FEATURE_WP_UNPOPULATED and
     * a WP registration over the whole mapping all succeed; otherwise
     * the process warns once and falls back to mprotect.
     */
    void arm(void *base, std::uint64_t len);

    /** Write-protect [addr, addr + len): the next store faults. */
    void protect(void *addr, std::uint64_t len);

    /** Make [addr, addr + len) writable again. */
    void unprotect(void *addr, std::uint64_t len);

    /** True when the region runs on userfaultfd-wp. */
    bool uffd() const { return uffd_ >= 0; }

    /**
     * Close the userfaultfd, if any.  The owner calls this after
     * unregistering from the fault dispatcher and before unmapping.
     */
    void close();

  private:
    /** The registered userfaultfd; -1 selects mprotect. */
    int uffd_ = -1;
};

} // namespace viyojit::runtime

#endif // VIYOJIT_RUNTIME_WRITE_PROTECT_HH
