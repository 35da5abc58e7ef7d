/* Peak resident set size from getrusage(2), which OCaml's Unix library
   does not expose.  RUSAGE_CHILDREN covers every child the process has
   waited for, so forked pool workers count once they are reaped. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_maxrss_kb(value children)
{
  struct rusage ru;
  if (getrusage(Bool_val(children) ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
