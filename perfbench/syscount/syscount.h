/*
 * Shared layout between the LD_PRELOAD syscall interposer
 * (syscount.c) and the benchmark binary that reads it.
 */
#ifndef PERFBENCH_SYSCOUNT_H
#define PERFBENCH_SYSCOUNT_H

#ifdef __cplusplus
extern "C" {
#endif

enum perfbench_syscall
{
    PERFBENCH_MPROTECT,
    PERFBENCH_PWRITE,
    PERFBENCH_PWRITEV,
    PERFBENCH_PREAD,
    PERFBENCH_FDATASYNC,
    PERFBENCH_IOCTL,
    PERFBENCH_SYSCALL_KINDS
};

/* Cumulative per-kind call counts and time spent inside the call. */
struct perfbench_syscall_counts
{
    unsigned long long calls[PERFBENCH_SYSCALL_KINDS];
    unsigned long long nanos[PERFBENCH_SYSCALL_KINDS];
};

/* Exported by the interposer; looked up with dlsym(RTLD_DEFAULT). */
typedef void (*perfbench_syscount_read_fn)(
    struct perfbench_syscall_counts *out);
typedef void (*perfbench_syscount_enable_fn)(int on);

#ifdef __cplusplus
}
#endif

#endif /* PERFBENCH_SYSCOUNT_H */
