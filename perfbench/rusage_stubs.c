/* Child-process accounting the OCaml Unix library does not expose:
   wait4(2) with the child's own rusage (CPU time and peak RSS), and a
   monotonic nanosecond clock for span and operation timing. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* wait4 on [pid], blocking.  Returns (pid, code, cpu_seconds, maxrss_kib):
   pid is -1 when the wait was interrupted by a signal (the caller retries
   after its handlers ran) and -2 on any other error; code is the exit
   status, or 128 + signal number for a child killed by a signal. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal2(res, cpu);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  pid_t r;
  int err;

  caml_enter_blocking_section();
  r = wait4(pid, &status, 0, &ru);
  err = errno;
  caml_leave_blocking_section();

  long code = 0;
  double secs = 0.0;
  long rss = 0;
  if (r < 0) {
    r = (err == EINTR) ? -1 : -2;
  } else {
    if (WIFEXITED(status)) code = WEXITSTATUS(status);
    else if (WIFSIGNALED(status)) code = 128 + WTERMSIG(status);
    secs = (double)ru.ru_utime.tv_sec + (double)ru.ru_utime.tv_usec * 1e-6
         + (double)ru.ru_stime.tv_sec + (double)ru.ru_stime.tv_usec * 1e-6;
    rss = ru.ru_maxrss;
  }
  cpu = caml_copy_double(secs);
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_long(r));
  Store_field(res, 1, Val_long(code));
  Store_field(res, 2, cpu);
  Store_field(res, 3, Val_long(rss));
  CAMLreturn(res);
}

value perfbench_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* CPU time of this process (all threads), in seconds. */
value perfbench_self_cpu(value unit)
{
  (void)unit;
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return caml_copy_double(
      (double)ru.ru_utime.tv_sec + (double)ru.ru_utime.tv_usec * 1e-6
      + (double)ru.ru_stime.tv_sec + (double)ru.ru_stime.tv_usec * 1e-6);
}
