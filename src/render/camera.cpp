#include "render/camera.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qv::render {

Camera::Camera(Vec3 eye, Vec3 target, Vec3 up, float fov_y_deg, int width,
               int height)
    : eye_(eye), width_(width), height_(height) {
  forward_ = (target - eye).normalized();
  right_ = forward_.cross(up).normalized();
  up_ = right_.cross(forward_);
  half_h_ = std::tan(fov_y_deg * float(M_PI) / 360.0f);
  half_w_ = half_h_ * float(width) / float(height);
}

Camera Camera::overview(const Box3& domain, int width, int height) {
  return orbit(domain, width, height, 0.0f);
}

Camera Camera::orbit(const Box3& domain, int width, int height,
                     float azimuth_deg) {
  Vec3 c = domain.center();
  Vec3 e = domain.extent();
  // Oblique view from above and to the side, rotated about the vertical
  // axis through the domain center.
  Vec3 offset{0.9f * e.x, -1.3f * e.y, 1.1f * e.z};
  float a = azimuth_deg * float(M_PI) / 180.0f;
  float ca = std::cos(a), sa = std::sin(a);
  Vec3 rotated{offset.x * ca - offset.y * sa, offset.x * sa + offset.y * ca,
               offset.z};
  return Camera(c + rotated, c, Vec3{0, 0, 1}, 38.0f, width, height);
}

Ray Camera::pixel_ray(int px, int py) const {
  float nx = (2.0f * (float(px) + 0.5f) / float(width_) - 1.0f) * half_w_;
  float ny = (1.0f - 2.0f * (float(py) + 0.5f) / float(height_)) * half_h_;
  Vec3 dir = (forward_ + right_ * nx + up_ * ny).normalized();
  auto safe_inv = [](float v) {
    return v != 0.0f ? 1.0f / v : std::numeric_limits<float>::infinity();
  };
  return {eye_, dir, {safe_inv(dir.x), safe_inv(dir.y), safe_inv(dir.z)}};
}

bool Camera::project(Vec3 p, float& sx, float& sy) const {
  Vec3 v = p - eye_;
  float z = v.dot(forward_);
  if (z <= 1e-6f) return false;
  float x = v.dot(right_) / z / half_w_;   // [-1, 1]
  float y = v.dot(up_) / z / half_h_;      // [-1, 1]
  sx = (x + 1.0f) * 0.5f * float(width_);
  sy = (1.0f - y) * 0.5f * float(height_);
  return true;
}

ScreenRect Camera::footprint(const Box3& box) const {
  float min_x = 1e30f, min_y = 1e30f, max_x = -1e30f, max_y = -1e30f;
  int behind = 0;
  for (int i = 0; i < 8; ++i) {
    Vec3 p{(i & 1) ? box.hi.x : box.lo.x, (i & 2) ? box.hi.y : box.lo.y,
           (i & 4) ? box.hi.z : box.lo.z};
    float sx, sy;
    if (!project(p, sx, sy)) {
      ++behind;
      continue;
    }
    min_x = std::min(min_x, sx);
    min_y = std::min(min_y, sy);
    max_x = std::max(max_x, sx);
    max_y = std::max(max_y, sy);
  }
  if (behind == 8) return {};  // entirely behind the eye
  if (behind > 0) {
    // Box straddles the eye plane: be conservative.
    return ScreenRect{0, 0, width_, height_};
  }
  if (min_x > max_x) return {};
  ScreenRect r{int(std::floor(min_x)), int(std::floor(min_y)),
               int(std::ceil(max_x)) + 1, int(std::ceil(max_y)) + 1};
  return r.clipped(width_, height_);
}

}  // namespace qv::render
