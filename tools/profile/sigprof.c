/* sigprof.c — a sampling profiler to LD_PRELOAD into any program.
 *
 * For hosts without perf: gprof's -pg instrumentation moves the code it
 * measures, while this sampler changes nothing in the program.  An
 * ITIMER_PROF timer interrupts it every millisecond of CPU time (the
 * kernel rounds the period up to its tick), and the SIGPROF handler
 * records the interrupted instruction pointer.  At exit the sampler
 * writes the main binary's load base, the end of its mapped image and
 * every sampled PC, in hex, to the file named by $SIGPROF_OUT:
 *
 *   base 0x555555554000
 *   end 0x5555556a1000
 *   0x5555555a3f12
 *   ...
 *
 * Subtracting the base gives the PC's offset in the binary, which
 * addr2line and objdump resolve.  tools/profile/sigprof.py builds this
 * file, runs a command under it and prints the profile.
 *
 * Build: cc -O2 -fPIC -shared -o sigprof.so tools/profile/sigprof.c
 * Use:   SIGPROF_OUT=pcs.txt LD_PRELOAD=./sigprof.so ./build/campaign_cli ...
 *
 * x86-64 Linux only (it reads REG_RIP).  A program that ends in _exit or
 * a fatal signal writes nothing. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

/* 2^20 samples: over an hour of CPU time at a 4 ms tick. */
#define SIGPROF_CAPACITY (1u << 20)

static uintptr_t pcs[SIGPROF_CAPACITY];
static unsigned taken; /* Samples recorded; atomic across threads. */

static void onProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
  const unsigned i = __atomic_fetch_add(&taken, 1u, __ATOMIC_RELAXED);
  if (i < SIGPROF_CAPACITY) pcs[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

struct Image {
  uintptr_t base;
  uintptr_t end;
};

/* The first object dl_iterate_phdr reports is the main program. */
static int mainImage(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  struct Image* image = (struct Image*)data;
  image->base = info->dlpi_addr;
  image->end = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    const uintptr_t end = info->dlpi_addr + ph->p_vaddr + ph->p_memsz;
    if (end > image->end) image->end = end;
  }
  return 1;
}

__attribute__((constructor)) static void start(void) {
  if (getenv("SIGPROF_OUT") == NULL) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = onProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval period = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &period, NULL);
}

__attribute__((destructor)) static void finish(void) {
  const char* path = getenv("SIGPROF_OUT");
  if (path == NULL) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  struct Image image = {0, 0};
  dl_iterate_phdr(mainImage, &image);
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("sigprof: cannot write $SIGPROF_OUT");
    return;
  }
  fprintf(out, "base 0x%lx\nend 0x%lx\n", (unsigned long)image.base,
          (unsigned long)image.end);
  unsigned n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
  if (n > SIGPROF_CAPACITY) n = SIGPROF_CAPACITY;
  for (unsigned i = 0; i < n; ++i) {
    fprintf(out, "0x%lx\n", (unsigned long)pcs[i]);
  }
  fclose(out);
}
