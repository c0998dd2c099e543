#include "viz/svg_canvas.h"

#include <cmath>
#include <iomanip>
#include <locale>

#include "geometry/angle.h"
#include "persist/file_io.h"
#include "util/check.h"

namespace photodtn {

namespace {

std::string style_attrs(const SvgStyle& s) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "fill=\"" << s.fill << "\" stroke=\"" << s.stroke << "\" stroke-width=\""
     << s.stroke_width << "\"";
  if (s.opacity < 1.0) os << " opacity=\"" << s.opacity << "\"";
  return os.str();
}

}  // namespace

SvgCanvas::SvgCanvas(Vec2 world_min, Vec2 world_max, double width_px, double margin_px)
    : world_min_(world_min), world_max_(world_max), margin_(margin_px),
      width_px_(width_px) {
  PHOTODTN_CHECK_MSG(world_max.x > world_min.x && world_max.y > world_min.y,
                     "world rectangle must have positive extent");
  PHOTODTN_CHECK_MSG(width_px > 2 * margin_px, "canvas too small for its margin");
  scale_ = (width_px - 2 * margin_px) / (world_max.x - world_min.x);
  height_px_ = (world_max.y - world_min.y) * scale_ + 2 * margin_px;
  // Numbers are SVG syntax, not prose: no grouping, '.' as the point,
  // whatever the global locale.
  body_.imbue(std::locale::classic());
  body_ << std::fixed << std::setprecision(2);
}

Vec2 SvgCanvas::to_pixels(Vec2 world) const noexcept {
  return {margin_ + (world.x - world_min_.x) * scale_,
          // SVG y grows downward.
          height_px_ - margin_ - (world.y - world_min_.y) * scale_};
}

void SvgCanvas::circle(Vec2 center, double radius_m, const SvgStyle& style) {
  const Vec2 p = to_pixels(center);
  body_ << "<circle cx=\"" << p.x << "\" cy=\"" << p.y << "\" r=\""
        << radius_m * scale_ << "\" " << style_attrs(style) << "/>\n";
}

void SvgCanvas::line(Vec2 from, Vec2 to, const SvgStyle& style) {
  const Vec2 a = to_pixels(from);
  const Vec2 b = to_pixels(to);
  body_ << "<line x1=\"" << a.x << "\" y1=\"" << a.y << "\" x2=\"" << b.x
        << "\" y2=\"" << b.y << "\" " << style_attrs(style) << "/>\n";
}

void SvgCanvas::sector(Vec2 apex, double range_m, double fov_rad,
                       double orientation_rad, const SvgStyle& style) {
  const Vec2 a = to_pixels(apex);
  const double r = range_m * scale_;
  const double lo = orientation_rad - fov_rad / 2.0;
  const double hi = orientation_rad + fov_rad / 2.0;
  // Pixel-space endpoints (y flipped).
  const double x1 = a.x + r * std::cos(lo);
  const double y1 = a.y - r * std::sin(lo);
  const double x2 = a.x + r * std::cos(hi);
  const double y2 = a.y - r * std::sin(hi);
  const int large = fov_rad > std::numbers::pi ? 1 : 0;
  // Sweep flag 0: with flipped y, counter-clockwise world arcs are drawn
  // "negative" in SVG space.
  body_ << "<path d=\"M " << a.x << ' ' << a.y << " L " << x1 << ' ' << y1 << " A "
        << r << ' ' << r << " 0 " << large << " 0 " << x2 << ' ' << y2 << " Z\" "
        << style_attrs(style) << "/>\n";
}

void SvgCanvas::aspect_ring(Vec2 center, double radius_m, const ArcSet& covered,
                            double thickness_m, const SvgStyle& style) {
  const Vec2 c = to_pixels(center);
  const double r = radius_m * scale_;
  for (const auto& [lo, hi] : covered.intervals()) {
    if (hi - lo >= kTwoPi - 1e-9) {
      // Full ring: a circle outline at ring thickness.
      SvgStyle ring = style;
      ring.fill = "none";
      ring.stroke = style.fill != "none" ? style.fill : style.stroke;
      ring.stroke_width = thickness_m * scale_;
      body_ << "<circle cx=\"" << c.x << "\" cy=\"" << c.y << "\" r=\"" << r
            << "\" " << style_attrs(ring) << "/>\n";
      continue;
    }
    const double x1 = c.x + r * std::cos(lo);
    const double y1 = c.y - r * std::sin(lo);
    const double x2 = c.x + r * std::cos(hi);
    const double y2 = c.y - r * std::sin(hi);
    const int large = (hi - lo) > std::numbers::pi ? 1 : 0;
    SvgStyle ring = style;
    ring.fill = "none";
    ring.stroke = style.fill != "none" ? style.fill : style.stroke;
    ring.stroke_width = thickness_m * scale_;
    body_ << "<path d=\"M " << x1 << ' ' << y1 << " A " << r << ' ' << r << " 0 "
          << large << " 0 " << x2 << ' ' << y2 << "\" " << style_attrs(ring)
          << "/>\n";
  }
}

void SvgCanvas::text(Vec2 pos, const std::string& label, double size_px,
                     const std::string& color) {
  const Vec2 p = to_pixels(pos);
  body_ << "<text x=\"" << p.x << "\" y=\"" << p.y << "\" font-size=\"" << size_px
        << "\" fill=\"" << color << "\" font-family=\"sans-serif\">" << label
        << "</text>\n";
}

std::string SvgCanvas::str() const {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
     << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width_px_
     << "\" height=\"" << height_px_ << "\" viewBox=\"0 0 " << width_px_ << ' '
     << height_px_ << "\">\n"
     << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
     << body_.str() << "</svg>\n";
  return os.str();
}

bool SvgCanvas::write_file(const std::string& path) const {
  return persist::checked_write_file(path, str());
}

}  // namespace photodtn
