#include "rim/demo/widget.hpp"

namespace rim::demo {

int use() {
  const Widget w;
  return used_by_product() + w.api();
}

}  // namespace rim::demo
