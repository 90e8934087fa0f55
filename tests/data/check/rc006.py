"""RC006 fixture: lambdas/closures/bound methods at the pool boundary."""

from concurrent.futures import ProcessPoolExecutor


def worker(x):
    return x


def dispatch(items, obj):
    def helper(x):
        return x

    pool = ProcessPoolExecutor()
    pool.submit(worker, items)                # fine: module-level callable
    pool.submit(lambda x: x, items)
    pool.submit(helper, items)
    pool.submit(obj.run, items)
