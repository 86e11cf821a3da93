"""DEAD001 positive fixture: public definitions nothing in the tree uses."""

__all__ = ["exported_only"]


def exported_only():
    return 1


def recursive_only(n):
    return recursive_only(n - 1) if n else 0


class Unused:
    def never_called(self):
        return 2


class Used:
    def used(self):
        return 3

    def also_never_called(self):
        return 4


print(Used().used())
