"""Test helpers that several test modules share."""

from polyrot import check_goryainov, circle_point, rotation_speed


def lambda_at(p, theta):
    """Excess rotation 2 (arg P)'_theta - n at theta, from the coefficients."""
    return 2.0 * rotation_speed(p, circle_point(theta)) - p.degree


class SelfMap:
    """f(z) = pre z prod (z - a)/(1 - conj(a) z), a finite Blaschke product over zeros a in the open disk."""

    def __init__(self, pre, zeros):
        self.pre, self.zeros = pre, tuple(zeros)

    def __call__(self, z):
        acc = self.pre * z
        for a in self.zeros:
            acc *= (z - a) / (1.0 - a.conjugate() * z)
        return acc

    def derivative_at_zero(self):
        acc = self.pre
        for a in self.zeros:
            acc *= -a
        return acc

    def goryainov(self, fp1):
        """`check_goryainov` of this map, whose angular derivative at 1 is fp1."""
        return check_goryainov(self(0j), self(1.0 + 0j), self.derivative_at_zero(), fp1)
