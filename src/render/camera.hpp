// Pinhole perspective camera: ray generation for the raycaster and
// projection for screen footprints of octree blocks.
#pragma once

#include <algorithm>

#include "util/vec.hpp"

namespace qv::render {

struct Ray {
  Vec3 origin;
  Vec3 dir;      // normalized
  Vec3 inv_dir;  // component-wise reciprocal (for slab tests)
};

// Integer screen rectangle [x0, x1) x [y0, y1).
struct ScreenRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  bool empty() const { return x0 >= x1 || y0 >= y1; }
  int width() const { return x1 - x0; }
  int height() const { return y1 - y0; }
  ScreenRect clipped(int w, int h) const {
    return {std::max(x0, 0), std::max(y0, 0), std::min(x1, w), std::min(y1, h)};
  }
};

class Camera {
 public:
  Camera(Vec3 eye, Vec3 target, Vec3 up, float fov_y_deg, int width, int height);

  // Standard visualization viewpoint for a ground-motion domain: looking
  // down at the surface from an oblique angle (as in the paper's figures).
  static Camera overview(const Box3& domain, int width, int height);

  // The overview viewpoint orbited by `azimuth_deg` around the domain
  // center's vertical axis — the spatial-exploration path ("browsing in
  // the spatial domain", §7); each new view retriggers the view-dependent
  // preprocessing (visibility order, SLIC schedule).
  static Camera orbit(const Box3& domain, int width, int height,
                      float azimuth_deg);

  int width() const { return width_; }
  int height() const { return height_; }
  Vec3 eye() const { return eye_; }

  // Ray through pixel center (px + 0.5, py + 0.5).
  Ray pixel_ray(int px, int py) const;

  // Project a world point. Returns false when behind the eye.
  bool project(Vec3 p, float& sx, float& sy) const;

  // Conservative screen footprint of an axis-aligned box (clipped to the
  // image). Boxes spanning the eye plane get the full image; boxes fully
  // behind the eye get an empty rect.
  ScreenRect footprint(const Box3& box) const;

 private:
  Vec3 eye_, forward_, right_, up_;
  float half_w_ = 1.0f, half_h_ = 1.0f;
  int width_, height_;
};

}  // namespace qv::render
