/**
 * @file
 * Tests for the runtime's write-protect substrate and its fault
 * dispatch: userfaultfd-wp in-process, the mprotect fallback in a
 * forked child whose seccomp filter denies userfaultfd, and the
 * SIGSEGV/SIGBUS routing rules — genuine faults outside every region
 * still kill the process with their own signal, and a SIGBUS that is
 * not a write-protect fault is never admitted as a write.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/types.hh"
#include "runtime/region.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VIYOJIT_TEST_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VIYOJIT_TEST_SANITIZER 1
#endif
#endif

namespace viyojit::runtime
{
namespace
{

std::string
tempPath(const std::string &tag)
{
    return "/tmp/viyojit_wp_test_" + tag + "_" +
           std::to_string(::getpid()) + ".img";
}

RuntimeConfig
manualConfig(std::uint64_t budget)
{
    RuntimeConfig cfg;
    cfg.dirtyBudgetPages = budget;
    cfg.startEpochThread = false;
    return cfg;
}

/**
 * The test's own probe of what the runtime needs from the kernel:
 * a user-mode userfaultfd granting SIGBUS delivery and write-protect
 * of unpopulated pages.
 */
bool
kernelGrantsUffdWp()
{
    const int fd = static_cast<int>(
        ::syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | 1));
    if (fd < 0)
        return false;
    struct uffdio_api api;
    std::memset(&api, 0, sizeof(api));
    api.api = UFFD_API;
    api.features = UFFD_FEATURE_SIGBUS | (1ULL << 13);
    const bool granted = ::ioctl(fd, UFFDIO_API, &api) == 0;
    ::close(fd);
    return granted;
}

/** Make userfaultfd(2) fail with ENOSYS for this process, for good. */
void
denyUserfaultfd()
{
    struct sock_filter filter[] = {
        BPF_STMT(BPF_LD | BPF_W | BPF_ABS,
                 offsetof(struct seccomp_data, nr)),
        BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_userfaultfd, 0, 1),
        BPF_STMT(BPF_RET | BPF_K,
                 SECCOMP_RET_ERRNO | (ENOSYS & SECCOMP_RET_DATA)),
        BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
    };
    struct sock_fprog prog;
    prog.len = static_cast<unsigned short>(sizeof(filter) /
                                           sizeof(filter[0]));
    prog.filter = filter;
    if (::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0 ||
        ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog) != 0) {
        std::fprintf(stderr, "seccomp filter refused: %s\n",
                     std::strerror(errno));
        std::_Exit(2);
    }
}

/** A substrate probe: "" on success, else what went wrong. */
using Probe = std::string (*)(const std::string &path, bool uffd);

/** Child side of a fallback run: deny userfaultfd, probe, exit. */
[[noreturn]] void
probeWithUserfaultfdDenied(Probe probe, const std::string &path)
{
    denyUserfaultfd();
    const std::string failure = probe(path, false);
    if (!failure.empty())
        std::fprintf(stderr, "mprotect fallback: %s\n",
                     failure.c_str());
    std::_Exit(failure.empty() ? 0 : 1);
}

std::string
substrateMismatch(const NvRegion &region, bool uffd)
{
    if (region.stats().uffdWriteProtect == uffd)
        return "";
    return std::string("stats().uffdWriteProtect is ") +
           (uffd ? "false" : "true");
}

/**
 * create → write 40 pages into an 8-page budget → flushAll() →
 * recover(): the budget holds after every write and the recovered
 * image is byte-identical to memory at the flush.
 */
std::string
roundTrip(const std::string &path, bool uffd)
{
    constexpr std::uint64_t kBudget = 8;
    constexpr std::uint64_t kWritten = 40;
    std::vector<char> shadow;
    {
        auto region = NvRegion::create(path, 48 * 4_KiB,
                                       manualConfig(kBudget));
        if (std::string bad = substrateMismatch(*region, uffd);
            !bad.empty())
            return bad;
        char *data = static_cast<char *>(region->base());
        const std::uint64_t ps = region->pageSize();
        for (std::uint64_t p = 0; p < kWritten; ++p) {
            std::memset(data + p * ps, 'a' + static_cast<int>(p % 26),
                        ps / 2);
            data[p * ps + ps - 1] = static_cast<char>(p);
            if (region->stats().dirtyPages > kBudget)
                return "dirty pages exceed the budget after page " +
                       std::to_string(p);
        }
        if (region->stats().writeFaults < kWritten)
            return "fewer write faults than first writes";
        region->flushAll();
        shadow.assign(data, data + region->size());
    }
    auto region = NvRegion::recover(path, manualConfig(kBudget));
    if (std::string bad = substrateMismatch(*region, uffd); !bad.empty())
        return "after recovery, " + bad;
    if (!region->recoveryReport().quarantined.empty())
        return "recovery quarantined pages";
    if (region->size() != shadow.size() ||
        std::memcmp(region->base(), shadow.data(), shadow.size()) != 0)
        return "recovered image differs from memory at the flush";
    return "";
}

/**
 * What the substrate must trap: a never-touched page read first (so
 * the shared zero page is mapped) and then written, a never-touched
 * page written directly, and a dirty page re-protected by an epoch
 * boundary, which faults again exactly once.
 */
std::string
faultSemantics(const std::string &path, bool uffd)
{
    auto region = NvRegion::create(path, 16 * 4_KiB, manualConfig(8));
    if (std::string bad = substrateMismatch(*region, uffd); !bad.empty())
        return bad;
    volatile char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    const auto expect = [&](std::uint64_t faults, std::uint64_t dirty,
                            const char *step) -> std::string {
        const RegionStats s = region->stats();
        if (s.writeFaults == faults && s.dirtyPages == dirty)
            return "";
        return std::string(step) + ": writeFaults " +
               std::to_string(s.writeFaults) + " (want " +
               std::to_string(faults) + "), dirtyPages " +
               std::to_string(s.dirtyPages) + " (want " +
               std::to_string(dirty) + ")";
    };

    if (data[3 * ps] != 0)
        return "untouched page is not zero";
    if (std::string bad = expect(0, 0, "read of an untouched page");
        !bad.empty())
        return bad;
    data[3 * ps] = 'r';
    if (std::string bad = expect(1, 1, "write after zero-page read");
        !bad.empty())
        return bad;

    data[5 * ps] = 'w';
    if (std::string bad = expect(2, 2, "first write to untouched page");
        !bad.empty())
        return bad;

    region->epochTick();
    data[5 * ps + 1] = 'x';
    if (std::string bad = expect(3, 2, "write after epoch re-protect");
        !bad.empty())
        return bad;
    data[5 * ps + 2] = 'y';
    if (std::string bad = expect(3, 2, "second write in the epoch");
        !bad.empty())
        return bad;

    if (data[3 * ps] != 'r' || data[5 * ps] != 'w' ||
        data[5 * ps + 1] != 'x' || data[5 * ps + 2] != 'y')
        return "stored bytes did not land";
    return "";
}

enum class Substrate { Uffd, Mprotect };

class WriteProtectSubstrateTest
    : public ::testing::TestWithParam<Substrate>
{
  protected:
    void
    TearDown() override
    {
        for (const std::string &path : cleanup) {
            ::unlink(path.c_str());
            ::unlink((path + ".meta").c_str());
        }
    }

    /**
     * Run `probe` on this test's substrate: in-process on
     * userfaultfd-wp, or in a forked child whose seccomp filter makes
     * userfaultfd(2) fail, which leaves only the mprotect fallback.
     */
    void
    runProbe(Probe probe, const std::string &tag)
    {
        const std::string path = tempPath(tag);
        cleanup.push_back(path);
        if (GetParam() == Substrate::Uffd) {
            if (!kernelGrantsUffdWp())
                GTEST_SKIP() << "kernel does not grant userfaultfd "
                                "SIGBUS + WP_UNPOPULATED";
            EXPECT_EQ(probe(path, true), "");
        } else {
            EXPECT_EXIT(probeWithUserfaultfdDenied(probe, path),
                        ::testing::ExitedWithCode(0), "");
        }
    }

    std::vector<std::string> cleanup;
};

TEST_P(WriteProtectSubstrateTest, RoundTripHoldsBudgetAndRecovers)
{
    runProbe(roundTrip, "roundtrip");
}

TEST_P(WriteProtectSubstrateTest, TrapsEveryFirstWrite)
{
    runProbe(faultSemantics, "semantics");
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, WriteProtectSubstrateTest,
    ::testing::Values(Substrate::Uffd, Substrate::Mprotect),
    [](const ::testing::TestParamInfo<Substrate> &param) {
        return param.param == Substrate::Uffd ? "uffd" : "mprotect";
    });

/**
 * Death predicate: the process ended by `signo`.  Under ASan or TSan
 * the chained previous handler is the sanitizer's own, which reports
 * the signal and exits nonzero instead of re-raising it.
 */
class DiedOf
{
  public:
    explicit DiedOf(int signo) : signo_(signo) {}

    bool
    operator()(int status) const
    {
        if (WIFSIGNALED(status) && WTERMSIG(status) == signo_)
            return true;
#ifdef VIYOJIT_TEST_SANITIZER
        return WIFEXITED(status) && WEXITSTATUS(status) != 0;
#else
        return false;
#endif
    }

  private:
    int signo_;
};

/** What the dying child prints: a sanitizer names the signal. */
const char *
deathMessage(int signo)
{
#ifdef VIYOJIT_TEST_SANITIZER
    return signo == SIGSEGV ? "Sanitizer: SEGV" : "Sanitizer: BUS";
#else
    (void)signo;
    return "";
#endif
}

/** Queue `signo` with a crafted siginfo to this thread. */
void
queueFault(int signo, int code, void *addr)
{
    siginfo_t info;
    std::memset(&info, 0, sizeof(info));
    info.si_signo = signo;
    info.si_code = code;
    info.si_addr = addr;
    ::syscall(SYS_rt_tgsigqueueinfo, ::getpid(), ::gettid(), signo,
              &info);
}

/** A live region, so the write-fault handler is installed. */
class FaultDispatchDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        region = NvRegion::create(path, 16 * 4_KiB, manualConfig(4));
    }

    void
    TearDown() override
    {
        region.reset();
        ::unlink(path.c_str());
        ::unlink((path + ".meta").c_str());
    }

    const std::string path = tempPath("dispatch");
    std::unique_ptr<NvRegion> region;
};

TEST_F(FaultDispatchDeathTest, StoreToProtNoneOutsideRegionsDiesOfSegv)
{
    void *guard = ::mmap(nullptr, 4_KiB, PROT_NONE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(guard, MAP_FAILED);
    EXPECT_EXIT(*static_cast<volatile char *>(guard) = 1,
                DiedOf(SIGSEGV), deathMessage(SIGSEGV));
    ::munmap(guard, 4_KiB);
}

TEST_F(FaultDispatchDeathTest, StorePastTruncatedFileEndDiesOfSigbus)
{
    const std::string file = tempPath("truncated");
    const int fd = ::open(file.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, 4_KiB), 0);
    void *map = ::mmap(nullptr, 4_KiB, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    ASSERT_NE(map, MAP_FAILED);
    ASSERT_EQ(::ftruncate(fd, 0), 0);
    EXPECT_EXIT(*static_cast<volatile char *>(map) = 1, DiedOf(SIGBUS),
                deathMessage(SIGBUS));
    ::munmap(map, 4_KiB);
    ::close(fd);
    ::unlink(file.c_str());
}

TEST_F(FaultDispatchDeathTest, HardwarePoisonSigbusInRegionIsNotAdmitted)
{
    char *page = static_cast<char *>(region->base()) + region->pageSize();
    EXPECT_EXIT(queueFault(SIGBUS, BUS_MCEERR_AR, page), DiedOf(SIGBUS),
                deathMessage(SIGBUS));
    EXPECT_EXIT(queueFault(SIGBUS, BUS_MCEERR_AO, page), DiedOf(SIGBUS),
                deathMessage(SIGBUS));
    EXPECT_EQ(region->stats().writeFaults, 0u);
    EXPECT_EQ(region->stats().dirtyPages, 0u);
}

TEST_F(FaultDispatchDeathTest, AdrerrSigbusInRegionIsAdmitted)
{
    // The control for the case above: the same delivery with the
    // userfaultfd-wp si_code is admitted as the page's write fault,
    // after which the page takes stores without faulting again.
    char *page = static_cast<char *>(region->base()) + region->pageSize();
    queueFault(SIGBUS, BUS_ADRERR, page);
    EXPECT_EQ(region->stats().writeFaults, 1u);
    EXPECT_EQ(region->stats().dirtyPages, 1u);
    page[0] = 'z';
    EXPECT_EQ(page[0], 'z');
    EXPECT_EQ(region->stats().writeFaults, 1u);
}

} // namespace
} // namespace viyojit::runtime
