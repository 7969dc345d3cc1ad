#pragma once

// Fixture for the unused-symbol pass: each declaration below is named by a
// different kind of translation unit.

namespace rim::demo {

int unreferenced_fn();     // named nowhere
int test_only_fn();        // named by tests/ only
int own_only_fn();         // named by widget.cpp only
int used_by_product();     // named by src/rim/demo/user.cpp
int bench_only_fn();       // named by bench/ only
int perfbench_only_fn();   // named by perfbench/src/ only

struct UnusedType {
  int value = 0;
};

class Widget {
 public:
  int api() const;

 private:
  int hidden() const;  // never named outside, but private: not surface
};

}  // namespace rim::demo
