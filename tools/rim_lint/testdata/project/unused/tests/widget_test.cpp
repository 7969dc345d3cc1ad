#include "rim/demo/widget.hpp"

TEST(Widget, TestOnly) { EXPECT_EQ(rim::demo::test_only_fn(), 2); }
