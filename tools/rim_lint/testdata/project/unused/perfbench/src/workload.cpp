#include "rim/demo/widget.hpp"

int run_workload() { return rim::demo::perfbench_only_fn(); }
