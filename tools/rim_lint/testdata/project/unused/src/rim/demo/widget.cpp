#include "rim/demo/widget.hpp"

namespace rim::demo {

int unreferenced_fn() { return 1; }
int test_only_fn() { return 2; }
int own_only_fn() { return 3; }
int used_by_product() { return 4; }
int bench_only_fn() { return 5; }
int perfbench_only_fn() { return 6; }

int Widget::api() const { return own_only_fn() + hidden(); }
int Widget::hidden() const { return 7; }

}  // namespace rim::demo
