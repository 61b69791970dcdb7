"""REP005 bad fixture: unpicklable callables shipped to process pools."""


def fan_out(pool, records, scale):
    futures = [pool.submit(lambda r: r * scale, rec) for rec in records]

    def local_mapper(record):  # closes over this frame: unpicklable
        return [record * scale]

    local = [pool.submit(local_mapper, rec) for rec in records]
    results = pool.map(lambda r: r * scale, records)
    return futures, local, results
