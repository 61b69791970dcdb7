"""REP005 good fixture: module-level callables only; threads exempt."""
from concurrent.futures import ThreadPoolExecutor


def _scale_mapper(record):
    return [record * 2]


def fan_out(pool, records):
    futures = [pool.submit(_scale_mapper, rec) for rec in records]
    with ThreadPoolExecutor(4) as thread_pool:
        # threads share the process: nothing is pickled
        threaded = list(thread_pool.map(lambda r: r * 2, records))
    return futures, threaded
