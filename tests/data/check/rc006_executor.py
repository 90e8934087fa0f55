"""RC006 fixture: a closure handed to a ``with``-bound executor."""

import concurrent.futures


def build_all(names):
    def build(name):
        return name

    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as executor:
        return [executor.submit(build, name) for name in names]
