"""RC006 fixture: ``submit`` on a job queue is no pool boundary."""


def enqueue(queue, scenarios):
    jobs = []
    for scenario in scenarios:
        name = scenario.strip()
        jobs.append(queue.submit(name))
    return jobs
