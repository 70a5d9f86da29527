#include "runtime/write_protect.hh"

#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"

// The libc headers can predate these (Linux 5.11 and 6.4).
#ifndef UFFD_USER_MODE_ONLY
#define UFFD_USER_MODE_ONLY 1
#endif
#ifndef UFFD_FEATURE_WP_UNPOPULATED
#define UFFD_FEATURE_WP_UNPOPULATED (1 << 13)
#endif

namespace viyojit::runtime
{

namespace
{

/**
 * SIGBUS delivery keeps the fault on the faulting thread; without
 * WP_UNPOPULATED a store to a never-touched anonymous page is not
 * trapped at all, which would silently break the dirty budget.
 */
constexpr std::uint64_t kUffdFeatures =
    UFFD_FEATURE_SIGBUS | UFFD_FEATURE_WP_UNPOPULATED;

/** The fallback is announced once per process, not once per region. */
std::atomic<bool> fallbackWarned{false};

/** One UFFDIO_WRITEPROTECT over [addr, addr + len); errno on failure. */
int
uffdWriteProtect(int uffd, void *addr, std::uint64_t len, bool wp)
{
    struct uffdio_writeprotect arg;
    std::memset(&arg, 0, sizeof(arg));
    arg.range.start = reinterpret_cast<std::uintptr_t>(addr);
    arg.range.len = len;
    arg.mode = wp ? UFFDIO_WRITEPROTECT_MODE_WP : 0;
    // EAGAIN means the address space changed under the call (only
    // possible with non-cooperative events, which are not requested);
    // retrying is the documented answer.
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
        if (::ioctl(uffd, UFFDIO_WRITEPROTECT, &arg) == 0)
            return 0;
        if (errno != EAGAIN)
            return errno;
    }
    return EAGAIN;
}

/**
 * Open a userfaultfd registered for write-protect over the whole
 * mapping and write-protect all of it.  Returns the fd, or -1 with
 * `step`/`error` naming what the kernel refused.
 */
int
openUffdWp(void *base, std::uint64_t len, const char *&step, int &error)
{
    const int fd = static_cast<int>(::syscall(
        SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
    if (fd < 0) {
        step = "userfaultfd";
        error = errno;
        return -1;
    }
    struct uffdio_api api;
    std::memset(&api, 0, sizeof(api));
    api.api = UFFD_API;
    api.features = kUffdFeatures;
    struct uffdio_register reg;
    std::memset(&reg, 0, sizeof(reg));
    reg.range.start = reinterpret_cast<std::uintptr_t>(base);
    reg.range.len = len;
    reg.mode = UFFDIO_REGISTER_MODE_WP;
    // A kernel without the features fails UFFDIO_API with EINVAL;
    // the mask checks guard against a partial grant all the same.
    if (::ioctl(fd, UFFDIO_API, &api) != 0) {
        step = "UFFDIO_API(SIGBUS|WP_UNPOPULATED)";
        error = errno;
    } else if ((api.features & kUffdFeatures) != kUffdFeatures) {
        step = "UFFDIO_API(SIGBUS|WP_UNPOPULATED)";
        error = EOPNOTSUPP;
    } else if (::ioctl(fd, UFFDIO_REGISTER, &reg) != 0) {
        step = "UFFDIO_REGISTER(MODE_WP)";
        error = errno;
    } else if (!(reg.ioctls & (1ULL << _UFFDIO_WRITEPROTECT))) {
        step = "UFFDIO_REGISTER(MODE_WP)";
        error = EOPNOTSUPP;
    } else if ((error = uffdWriteProtect(fd, base, len, true)) != 0) {
        step = "UFFDIO_WRITEPROTECT";
    } else {
        return fd;
    }
    // Closing unregisters the range; any write-protect bits already
    // set are ignored once the VMA is no longer armed.
    ::close(fd);
    return -1;
}

} // namespace

void
WriteProtect::arm(void *base, std::uint64_t len)
{
    const char *step = nullptr;
    int error = 0;
    uffd_ = openUffdWp(base, len, step, error);
    if (uffd_ >= 0)
        return;
    if (!fallbackWarned.exchange(true, std::memory_order_relaxed))
        warn("userfaultfd write-protect unavailable (", step, ": ",
             std::strerror(error), "); falling back to mprotect");
    if (::mprotect(base, len, PROT_READ) != 0)
        fatal("initial mprotect failed: ", std::strerror(errno));
}

void
WriteProtect::protect(void *addr, std::uint64_t len)
{
    if (uffd_ >= 0) {
        if (const int error = uffdWriteProtect(uffd_, addr, len, true))
            panic("userfaultfd write-protect failed: ",
                  std::strerror(error));
    } else if (::mprotect(addr, len, PROT_READ) != 0) {
        panic("mprotect failed: ", std::strerror(errno));
    }
}

void
WriteProtect::unprotect(void *addr, std::uint64_t len)
{
    if (uffd_ >= 0) {
        if (const int error = uffdWriteProtect(uffd_, addr, len, false))
            panic("userfaultfd write-unprotect failed: ",
                  std::strerror(error));
    } else if (::mprotect(addr, len, PROT_READ | PROT_WRITE) != 0) {
        panic("mprotect failed: ", std::strerror(errno));
    }
}

void
WriteProtect::close()
{
    if (uffd_ >= 0)
        ::close(uffd_);
    uffd_ = -1;
}

} // namespace viyojit::runtime
