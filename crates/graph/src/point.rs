//! Planar points and Euclidean geometry.

/// A point in the plane. Road-network vertex coordinates are stored in an arbitrary
/// planar unit (the synthetic generator uses metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when only comparisons are
    /// needed, e.g. inside R-tree traversal).
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// An axis-aligned bounding rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Rect {
    /// An empty rectangle that expands to cover whatever is added to it.
    pub fn empty() -> Self {
        Rect {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// Expands the rectangle to cover `p`.
    pub fn expand_point(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Expands the rectangle to cover `other`.
    pub fn expand_rect(&mut self, other: &Rect) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// True when the rectangle contains `p` (boundaries inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// True when the two rectangles overlap (boundaries inclusive).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Minimum Euclidean distance from `p` to any point of the rectangle (zero when the
    /// point lies inside).
    pub fn min_distance(&self, p: Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum Euclidean distance from `p` to any point of the rectangle.
    pub fn max_distance(&self, p: Point) -> f64 {
        let dx = (p.x - self.min_x).abs().max((p.x - self.max_x).abs());
        let dy = (p.y - self.min_y).abs().max((p.y - self.max_y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height of the rectangle.
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Semi-perimeter, the usual R-tree enlargement metric.
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Area of the rectangle (zero for degenerate rectangles).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn rect_contains_and_min_distance() {
        let mut r = Rect::empty();
        r.expand_point(Point::new(0.0, 0.0));
        r.expand_point(Point::new(10.0, 10.0));
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(!r.contains(Point::new(11.0, 5.0)));
        assert_eq!(r.min_distance(Point::new(5.0, 5.0)), 0.0);
        assert!((r.min_distance(Point::new(13.0, 14.0)) - 5.0).abs() < 1e-12);
        assert!((r.max_distance(Point::new(0.0, 0.0)) - (200.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rect_intersections() {
        let a = Rect { min_x: 0.0, min_y: 0.0, max_x: 5.0, max_y: 5.0 };
        let b = Rect { min_x: 4.0, min_y: 4.0, max_x: 9.0, max_y: 9.0 };
        let c = Rect { min_x: 6.0, min_y: 6.0, max_x: 9.0, max_y: 9.0 };
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!((a.area() - 25.0).abs() < 1e-12);
        assert!((a.margin() - 10.0).abs() < 1e-12);
    }
}
