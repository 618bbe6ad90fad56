// The separator surface produced by the sphere-separator algorithm.
//
// A great circle on the lifted sphere S^D pulls back, through the
// stereographic projection, to either a (d-1)-sphere or a hyperplane in
// R^D (the hyperplane arises when the circle passes through the projection
// pole). `SeparatorShape` represents both, with an orientation flag so the
// "inner" side is well defined independently of the geometric inside.
#pragma once

#include <cmath>

#include "geometry/ball.hpp"
#include "geometry/point.hpp"
#include "support/assert.hpp"

namespace sepdc::geo {

template <int D>
struct Halfspace {
  Point<D> normal{};   // need not be unit; classification uses the sign
  double offset = 0.0;  // surface is { x : normal . x == offset }

  friend bool operator==(const Halfspace&, const Halfspace&) = default;
};

template <int D>
class SeparatorShape {
 public:
  enum class Kind : unsigned char { Sphere, Halfspace };

  SeparatorShape() : kind_(Kind::Halfspace) { plane_.normal[0] = 1.0; }

  static SeparatorShape make_sphere(Sphere<D> s, bool flip_sides = false) {
    SeparatorShape shape;
    shape.kind_ = Kind::Sphere;
    shape.sphere_ = s;
    shape.flip_ = flip_sides;
    SEPDC_CHECK_MSG(s.radius > 0.0, "separator sphere needs positive radius");
    return shape;
  }

  static SeparatorShape make_halfspace(Halfspace<D> h,
                                       bool flip_sides = false) {
    SeparatorShape shape;
    shape.kind_ = Kind::Halfspace;
    shape.plane_ = h;
    shape.flip_ = flip_sides;
    SEPDC_CHECK_MSG(norm2(h.normal) > 0.0, "halfspace needs a normal");
    return shape;
  }

  Kind kind() const { return kind_; }
  bool is_sphere() const { return kind_ == Kind::Sphere; }
  const Sphere<D>& sphere() const {
    SEPDC_ASSERT(kind_ == Kind::Sphere);
    return sphere_;
  }
  const Halfspace<D>& halfspace() const {
    SEPDC_ASSERT(kind_ == Kind::Halfspace);
    return plane_;
  }
  bool flipped() const { return flip_; }

  // Points on the surface classify Inner (paper: "p on S" goes left).
  Side classify(const Point<D>& p) const {
    bool geometric_inner;
    if (kind_ == Kind::Sphere) {
      geometric_inner = classify_point(sphere_, p) == Side::Inner;
    } else {
      geometric_inner = dot(plane_.normal, p) <= plane_.offset;
    }
    return (geometric_inner != flip_) ? Side::Inner : Side::Outer;
  }

  // Ball classification; tangency counts as Cut.
  Region classify(const Ball<D>& b) const {
    return classify_at(center_distance(b.center), b.radius);
  }

  // How far q sits from the surface, in the form classify_at consumes:
  // the distance to the sphere's centre, or the signed distance to the
  // plane (negative on the normal's inner side).
  double center_distance(const Point<D>& q) const {
    if (kind_ == Kind::Sphere) return distance(sphere_.center, q);
    return (dot(plane_.normal, q) - plane_.offset) / norm(plane_.normal);
  }

  // classify(Ball{q, radius}) from q's cached center_distance: the same
  // inequalities and relative margins, so a search that tries many radii
  // around one q computes the distance once and still agrees with the
  // ball march bit for bit.
  Region classify_at(double center_dist, double radius) const {
    Region geometric;
    if (kind_ == Kind::Sphere) {
      geometric = classify_ball_at(sphere_.radius, center_dist, radius);
    } else {
      double margin = 1e-12 * (std::abs(center_dist) + radius + 1.0);
      if (center_dist + radius < -margin)
        geometric = Region::Inner;
      else if (center_dist - radius > margin)
        geometric = Region::Outer;
      else
        geometric = Region::Cut;
    }
    if (geometric == Region::Cut || !flip_) return geometric;
    return geometric == Region::Inner ? Region::Outer : Region::Inner;
  }

 private:
  // The pad_ arrays fill what would be padding after kind_ and flip_:
  // shapes are written raw into snapshot files (every ForestNode), so
  // all of their bytes must be defined.
  Kind kind_;
  unsigned char pad_kind_[7] = {};
  Sphere<D> sphere_{};
  Halfspace<D> plane_{};
  bool flip_ = false;
  unsigned char pad_flip_[7] = {};
};

}  // namespace sepdc::geo
