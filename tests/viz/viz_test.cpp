#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "test_util.h"
#include "viz/coverage_scene.h"
#include "viz/svg_canvas.h"

namespace photodtn {
namespace {

using test::photo_viewing;

TEST(SvgCanvas, CoordinateTransformFlipsY) {
  const SvgCanvas c({0.0, 0.0}, {100.0, 100.0}, /*width=*/120.0, /*margin=*/10.0);
  const Vec2 origin = c.to_pixels({0.0, 0.0});
  const Vec2 top_right = c.to_pixels({100.0, 100.0});
  EXPECT_DOUBLE_EQ(origin.x, 10.0);
  EXPECT_DOUBLE_EQ(origin.y, 110.0);  // bottom-left world -> bottom-left px
  EXPECT_DOUBLE_EQ(top_right.x, 110.0);
  EXPECT_DOUBLE_EQ(top_right.y, 10.0);
}

TEST(SvgCanvas, NumbersIgnoreTheGlobalLocale) {
  const auto document = [] {
    // One world meter per pixel: the circle's centre lands at x = 1200.
    SvgCanvas c({0.0, 0.0}, {1200.0, 1200.0}, /*width=*/1240.0, /*margin=*/20.0);
    SvgStyle style;
    style.stroke_width = 1500.5;
    style.opacity = 0.5;
    c.circle({1180.0, 600.0}, 1000.25, style);
    c.sector({600.0, 600.0}, 1100.0, 2.0, 0.5, style);
    return c.str();
  };
  const std::string expected = document();
  EXPECT_NE(expected.find("width=\"1240\""), std::string::npos);
  EXPECT_NE(expected.find("cx=\"1200.00\""), std::string::npos);
  EXPECT_NE(expected.find("r=\"1000.25\""), std::string::npos);
  EXPECT_NE(expected.find("stroke-width=\"1500.5\""), std::string::npos);
  const test::GroupingLocaleScope grouping;
  EXPECT_EQ(document(), expected);
}

TEST(SvgCanvas, EmitsWellFormedDocument) {
  SvgCanvas c({0.0, 0.0}, {100.0, 100.0});
  c.circle({50.0, 50.0}, 10.0, SvgStyle{});
  c.line({0.0, 0.0}, {100.0, 100.0}, SvgStyle{});
  c.text({10.0, 10.0}, "hello");
  const std::string svg = c.str();
  EXPECT_NE(svg.find("<?xml"), std::string::npos);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("hello"), std::string::npos);
  // Every opened element is self-closed or closed.
  EXPECT_EQ(svg.find("<circle cx"), svg.rfind("<circle cx"));
}

TEST(SvgCanvas, SectorAndRingProducePaths) {
  SvgCanvas c({-200.0, -200.0}, {200.0, 200.0});
  c.sector({0.0, 0.0}, 100.0, deg_to_rad(60.0), 0.0, SvgStyle{});
  ArcSet covered;
  covered.add(Arc::centered(0.0, deg_to_rad(40.0)));
  c.aspect_ring({0.0, 0.0}, 40.0, covered, 10.0, SvgStyle{});
  const std::string svg = c.str();
  EXPECT_NE(svg.find("<path"), std::string::npos);
  EXPECT_NE(svg.find(" A "), std::string::npos);  // arc commands present
}

TEST(SvgCanvas, FullRingBecomesCircle) {
  SvgCanvas c({-100.0, -100.0}, {100.0, 100.0});
  ArcSet full;
  full.add({0.0, kTwoPi});
  c.aspect_ring({0.0, 0.0}, 40.0, full, 10.0, SvgStyle{});
  EXPECT_NE(c.str().find("<circle"), std::string::npos);
}

TEST(SvgCanvas, RejectsDegenerateWorld) {
  EXPECT_THROW(SvgCanvas({0.0, 0.0}, {0.0, 10.0}), std::logic_error);
  EXPECT_THROW(SvgCanvas({0.0, 0.0}, {10.0, 10.0}, 10.0, 20.0), std::logic_error);
}

TEST(CoverageScene, RendersPhotosAndPois) {
  const CoverageModel model = test::single_poi_model(30.0);
  std::vector<PhotoMeta> photos{photo_viewing(model.pois()[0], 0.0),
                                photo_viewing(model.pois()[0], 180.0)};
  CoverageMap map(model);
  for (const auto& p : photos) map.add(model.footprint_cached(p));
  const SvgCanvas canvas = render_coverage_scene(model, photos, &map);
  const std::string svg = canvas.str();
  // Two wedges + two axis lines + PoI cross + ring segments + label.
  EXPECT_NE(svg.find("PoI 0"), std::string::npos);
  EXPECT_GE(std::count(svg.begin(), svg.end(), '\n'), 8);
}

TEST(CoverageScene, FileRoundTrip) {
  const CoverageModel model = test::single_poi_model(30.0);
  std::vector<PhotoMeta> photos{photo_viewing(model.pois()[0], 90.0)};
  const SvgCanvas canvas = render_coverage_scene(model, photos, nullptr);
  const std::string path = ::testing::TempDir() + "/photodtn_scene.svg";
  ASSERT_TRUE(canvas.write_file(path));
  std::ifstream f(path);
  std::string contents((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace photodtn
