"""DEAD001 negative fixture: every public definition has a use."""

HANDLERS = []


def register(cls):
    HANDLERS.append(cls)
    return cls


@register
class Handler:
    def __call__(self):
        return self.handle()

    def handle(self):
        return 1


def dispatched():
    return 2


def _private_helper():
    return 3


class Size:
    def __len__(self):
        return 0

    @property
    def area(self):
        return len(self)


print(HANDLERS[0]()(), getattr(__import__(__name__), "dispatched")(), Size().area)
