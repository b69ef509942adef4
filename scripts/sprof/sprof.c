/*
 * sprof: a SIGPROF program-counter sampler, loaded with LD_PRELOAD.
 *
 * For hosts without `perf` or a hardware PMU. Every ITIMER_PROF tick
 * (CPU time of the whole process, any thread) records the interrupted
 * instruction pointer. At exit the shim writes `$SPROF_OUT.<pid>`: a copy
 * of /proc/self/maps, a line `SAMPLES`, then one hex address per sample.
 * `report.py` resolves them to source lines.
 *
 *   gcc -O2 -shared -fPIC -o sprof.so scripts/sprof/sprof.c
 *   SPROF_OUT=/tmp/prof LD_PRELOAD=$PWD/sprof.so ./program args...
 *
 * SPROF_HZ sets the sampling rate (default 1000 per CPU second). Without
 * SPROF_OUT the shim does nothing. x86-64 Linux only (REG_RIP).
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 24)

static unsigned long *samples;
static unsigned long n_samples;
static const char *out_prefix;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) {
        samples[i] = (unsigned long)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    }
}

__attribute__((constructor)) static void sprof_start(void) {
    out_prefix = getenv("SPROF_OUT");
    if (!out_prefix) {
        return;
    }
    samples = mmap(NULL, MAX_SAMPLES * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) {
        out_prefix = NULL;
        return;
    }
    long hz = 1000;
    const char *h = getenv("SPROF_HZ");
    if (h && atol(h) > 0) {
        hz = atol(h);
    }
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    long us = 1000000 / hz;
    struct itimerval it = {{us / 1000000, us % 1000000}, {us / 1000000, us % 1000000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sprof_stop(void) {
    if (!out_prefix) {
        return;
    }
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out_prefix, (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        return;
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char buf[8192];
        size_t got;
        while ((got = fread(buf, 1, sizeof buf, maps)) > 0) {
            fwrite(buf, 1, got, out);
        }
        fclose(maps);
    }
    fputs("SAMPLES\n", out);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++) {
        fprintf(out, "%lx\n", samples[i]);
    }
    fclose(out);
}
