"""Fitness workers: wrap the hardware model and the native trainer behind
the common job-in/result-out interface."""

from __future__ import annotations

from .config import HwConfig
from .dataset import Dataset
from .dispatch import EvalJob, EvalResult, Worker, failed_result
from .hwmodel import ModelError, SystolicConfig, estimate, resource_estimate
from .nnsim import TrainingDiverged, train


def make_hwdb_worker(hw: HwConfig) -> Worker:
    """Analytical-model worker: screens the design's resources, then times it.

    The resource screen runs before the timing model. A design that does not
    fit the device budget comes back as a failed result carrying only the
    screen's metrics (``dsp_est``, ``mem_kb_est``, ``feasible`` 0.0) and
    scores zero on hwDBJob; no timing work is spent on it. The screen reads
    only the array, so a description that ``estimate`` would reject fails
    with the budget message when its array does not fit, and with the
    ``ModelError`` message when it does. A design that fits gets the full
    metric set from ``estimate``.
    """

    def worker(job: EvalJob) -> EvalResult:
        desc = job.network
        if desc.systolic is None:
            return failed_result(job, "network description has no systolic configuration")
        try:
            cfg = SystolicConfig.from_desc(desc.systolic, freq_mhz=hw.freq)
        except ModelError as exc:
            return failed_result(job, str(exc))
        dsp_est, mem_kb_est, feasible = resource_estimate(cfg, hw)
        if not feasible:
            return EvalResult(
                genome_id=job.genome_id, eval_type=job.eval_type,
                metrics={"dsp_est": dsp_est, "mem_kb_est": mem_kb_est, "feasible": 0.0},
                status="failed",
                diagnostics=f"resource budget exceeded: dsp {dsp_est:.0f}/{hw.dsp}, "
                            f"mem {mem_kb_est:.0f}/{hw.sram}",
            )
        try:
            est = estimate(desc, cfg, hw)
        except ModelError as exc:
            return failed_result(job, str(exc))
        return EvalResult(genome_id=job.genome_id, eval_type=job.eval_type,
                          metrics=est.metrics())

    return worker


def make_sim_worker(data: Dataset) -> Worker:
    """Trainer worker: trains the described network and reports test accuracy.

    The job's params give the epochs, the training batch size and the seed;
    the engine sets all three, so a result depends only on the job.
    """

    def worker(job: EvalJob) -> EvalResult:
        try:
            _, report = train(job.network, data, epochs=int(job.params["epochs"]),
                              batch_size=int(job.params["batchSize"]),
                              seed=int(job.params["seed"]))
        except TrainingDiverged as exc:
            return failed_result(job, str(exc))
        return EvalResult(
            genome_id=job.genome_id, eval_type=job.eval_type,
            metrics={"accuracy": report.accuracy, "epochs": float(report.epochs),
                     "batch_size": float(report.batch_size)},
        )

    return worker

