/* Set the calling thread's timer slack (Linux), so the open-loop sender's
   sleeps end within microseconds of their deadline instead of the
   default 50 us late. A no-op elsewhere. */
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

value servebench_set_timer_slack_ns(value ns)
{
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
#endif
  return Val_unit;
}
