/*
 * LD_PRELOAD interposer counting the syscalls the runtime's write
 * tracking and flush paths make: mprotect, pwrite, pwritev, pread,
 * fdatasync and ioctl (the last so a userfaultfd substrate shows up).
 *
 * The runtime calls mprotect and pwrite from its SIGSEGV handler, so
 * every wrapper is async-signal-safe: the real entry points are
 * resolved once in a load-time constructor (dlsym is not signal-safe),
 * counters are lock-free atomics, and timing uses clock_gettime.  A
 * wrapper that runs before the constructor falls back to syscall(2).
 *
 * Counting is off until perfbench_syscount_enable(1), so the untraced
 * leg of a traced run pays one relaxed load per call.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdarg.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include "syscount.h"

static unsigned long long g_calls[PERFBENCH_SYSCALL_KINDS];
static unsigned long long g_nanos[PERFBENCH_SYSCALL_KINDS];
static int g_enabled;

typedef int (*mprotect_fn)(void *, size_t, int);
typedef ssize_t (*pwrite_fn)(int, const void *, size_t, off_t);
typedef ssize_t (*pwritev_fn)(int, const struct iovec *, int, off_t);
typedef ssize_t (*pread_fn)(int, void *, size_t, off_t);
typedef int (*fdatasync_fn)(int);
typedef int (*ioctl_fn)(int, unsigned long, void *);

static mprotect_fn real_mprotect;
static pwrite_fn real_pwrite;
static pwrite_fn real_pwrite64;
static pwritev_fn real_pwritev;
static pwritev_fn real_pwritev64;
static pread_fn real_pread;
static pread_fn real_pread64;
static fdatasync_fn real_fdatasync;
static ioctl_fn real_ioctl;

__attribute__((constructor)) static void
resolve(void)
{
    real_mprotect = (mprotect_fn)dlsym(RTLD_NEXT, "mprotect");
    real_pwrite = (pwrite_fn)dlsym(RTLD_NEXT, "pwrite");
    real_pwrite64 = (pwrite_fn)dlsym(RTLD_NEXT, "pwrite64");
    real_pwritev = (pwritev_fn)dlsym(RTLD_NEXT, "pwritev");
    real_pwritev64 = (pwritev_fn)dlsym(RTLD_NEXT, "pwritev64");
    real_pread = (pread_fn)dlsym(RTLD_NEXT, "pread");
    real_pread64 = (pread_fn)dlsym(RTLD_NEXT, "pread64");
    real_fdatasync = (fdatasync_fn)dlsym(RTLD_NEXT, "fdatasync");
    real_ioctl = (ioctl_fn)dlsym(RTLD_NEXT, "ioctl");
}

static unsigned long long
now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (unsigned long long)ts.tv_sec * 1000000000ull +
           (unsigned long long)ts.tv_nsec;
}

static int
counting(void)
{
    return __atomic_load_n(&g_enabled, __ATOMIC_RELAXED);
}

static void
account(int kind, unsigned long long start)
{
    const unsigned long long spent = now_ns() - start;
    __atomic_fetch_add(&g_calls[kind], 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&g_nanos[kind], spent, __ATOMIC_RELAXED);
}

void
perfbench_syscount_enable(int on)
{
    __atomic_store_n(&g_enabled, on, __ATOMIC_RELAXED);
}

void
perfbench_syscount_read(struct perfbench_syscall_counts *out)
{
    for (int i = 0; i < PERFBENCH_SYSCALL_KINDS; ++i) {
        out->calls[i] = __atomic_load_n(&g_calls[i], __ATOMIC_RELAXED);
        out->nanos[i] = __atomic_load_n(&g_nanos[i], __ATOMIC_RELAXED);
    }
}

int
mprotect(void *addr, size_t len, int prot)
{
    if (!counting())
        return real_mprotect ? real_mprotect(addr, len, prot)
                             : (int)syscall(SYS_mprotect, addr, len, prot);
    const unsigned long long start = now_ns();
    const int r = real_mprotect ? real_mprotect(addr, len, prot)
                                : (int)syscall(SYS_mprotect, addr, len,
                                               prot);
    account(PERFBENCH_MPROTECT, start);
    return r;
}

static ssize_t
counted_pwrite(pwrite_fn fn, int fd, const void *buf, size_t n, off_t off)
{
    const int on = counting();
    const unsigned long long start = on ? now_ns() : 0;
    const ssize_t r =
        fn ? fn(fd, buf, n, off)
           : (ssize_t)syscall(SYS_pwrite64, fd, buf, n, off);
    if (on)
        account(PERFBENCH_PWRITE, start);
    return r;
}

ssize_t
pwrite(int fd, const void *buf, size_t n, off_t off)
{
    return counted_pwrite(real_pwrite, fd, buf, n, off);
}

ssize_t
pwrite64(int fd, const void *buf, size_t n, off_t off)
{
    return counted_pwrite(real_pwrite64, fd, buf, n, off);
}

static ssize_t
counted_pwritev(pwritev_fn fn, int fd, const struct iovec *iov, int cnt,
                off_t off)
{
    const int on = counting();
    const unsigned long long start = on ? now_ns() : 0;
    /* The raw syscall splits the offset into low and high words. */
    const ssize_t r =
        fn ? fn(fd, iov, cnt, off)
           : (ssize_t)syscall(SYS_pwritev, fd, iov, cnt,
                              (unsigned long)off, 0UL);
    if (on)
        account(PERFBENCH_PWRITEV, start);
    return r;
}

ssize_t
pwritev(int fd, const struct iovec *iov, int cnt, off_t off)
{
    return counted_pwritev(real_pwritev, fd, iov, cnt, off);
}

ssize_t
pwritev64(int fd, const struct iovec *iov, int cnt, off_t off)
{
    return counted_pwritev(real_pwritev64, fd, iov, cnt, off);
}

static ssize_t
counted_pread(pread_fn fn, int fd, void *buf, size_t n, off_t off)
{
    const int on = counting();
    const unsigned long long start = on ? now_ns() : 0;
    const ssize_t r =
        fn ? fn(fd, buf, n, off)
           : (ssize_t)syscall(SYS_pread64, fd, buf, n, off);
    if (on)
        account(PERFBENCH_PREAD, start);
    return r;
}

ssize_t
pread(int fd, void *buf, size_t n, off_t off)
{
    return counted_pread(real_pread, fd, buf, n, off);
}

ssize_t
pread64(int fd, void *buf, size_t n, off_t off)
{
    return counted_pread(real_pread64, fd, buf, n, off);
}

int
fdatasync(int fd)
{
    const int on = counting();
    const unsigned long long start = on ? now_ns() : 0;
    const int r = real_fdatasync ? real_fdatasync(fd)
                                 : (int)syscall(SYS_fdatasync, fd);
    if (on)
        account(PERFBENCH_FDATASYNC, start);
    return r;
}

int
ioctl(int fd, unsigned long request, ...)
{
    va_list ap;
    va_start(ap, request);
    void *arg = va_arg(ap, void *);
    va_end(ap);
    const int on = counting();
    const unsigned long long start = on ? now_ns() : 0;
    const int r = real_ioctl ? real_ioctl(fd, request, arg)
                             : (int)syscall(SYS_ioctl, fd, request, arg);
    if (on)
        account(PERFBENCH_IOCTL, start);
    return r;
}
