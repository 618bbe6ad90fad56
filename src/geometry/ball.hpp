// Balls and (d-1)-spheres, plus the classification predicates of §2.1.
//
// A `Sphere<D>` is the boundary surface used as a separator; a `Ball<D>` is
// a solid neighborhood ball. A sphere partitions a neighborhood system into
// interior / exterior / intersecting balls (B_I, B_E, B_O in the paper).
#pragma once

#include <cmath>

#include "geometry/point.hpp"

namespace sepdc::geo {

template <int D>
struct Ball {
  Point<D> center{};
  double radius = 0.0;

  bool contains(const Point<D>& p) const {
    // Interior containment (strict), matching the paper's "interior of B_i
    // contains at most k points" convention.
    return distance2(center, p) < radius * radius;
  }

  friend bool operator==(const Ball&, const Ball&) = default;
};

template <int D>
struct Sphere {
  Point<D> center{};
  double radius = 0.0;

  friend bool operator==(const Sphere&, const Sphere&) = default;
};

// Which side of a separator an object lies on. Points exactly on the
// surface classify as Inner (the paper sends "p on S" to the left child).
enum class Side : unsigned char { Inner, Outer };

// Region of a ball relative to a separator surface.
enum class Region : unsigned char { Inner, Outer, Cut };

template <int D>
Side classify_point(const Sphere<D>& s, const Point<D>& p) {
  return distance2(s.center, p) <= s.radius * s.radius ? Side::Inner
                                                       : Side::Outer;
}

// Classifies a ball against a sphere: entirely inside, entirely outside, or
// intersecting the surface. Tangency counts as Cut, and a small relative
// margin widens the Cut band (conservative: a cut ball is the one the
// algorithms must correct, so erring toward Cut preserves correctness even
// when the square roots round unfavorably).
//
// `classify_ball_at` is the same test for a ball of radius `radius` whose
// centre lies at distance `dist` from the centre of a sphere of radius
// `sphere_radius` — the form a search that reuses one centre distance
// across many radii consumes.
inline Region classify_ball_at(double sphere_radius, double dist,
                               double radius) {
  double margin = 1e-12 * (dist + radius + sphere_radius);
  if (dist + radius < sphere_radius - margin) return Region::Inner;
  if (dist - radius > sphere_radius + margin) return Region::Outer;
  return Region::Cut;
}

template <int D>
Region classify_ball(const Sphere<D>& s, const Ball<D>& b) {
  return classify_ball_at(s.radius, distance(s.center, b.center), b.radius);
}

}  // namespace sepdc::geo
