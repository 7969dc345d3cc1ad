#include "rim/demo/widget.hpp"

int main() { return rim::demo::bench_only_fn(); }
