"""E5 -- the retinal vessel segmentation application (Figure 5).

Figure 5 of the paper is the processing pipeline: preprocessing in software,
then Gaussian denoise (5x5/9x9), seven 16x16 steerable matched filters and a
texture filter in hardware, followed by thresholding.  The paper reports no
quality numbers, so this experiment regenerates the pipeline behaviour:

* per-stage runtimes of the reference (NumPy) implementation,
* segmentation quality against the synthetic ground truth, and
* a cross-check that the VCGRA-executed filters produce the same responses
  as the reference within the FloPoCo format's precision.
"""

from __future__ import annotations

import numpy as np
import pytest

from _bench_config import BENCH_IMAGE_SIZE, write_report
from repro.apps.filters import convolve2d, gaussian_kernel
from repro.apps.images import generate_fundus
from repro.apps.mapping import VCGRAFilterEngine
from repro.apps.retina import RetinalVesselSegmentation, SegmentationConfig
from repro.core.grid import VCGRAArchitecture
from repro.core.pe import ProcessingElementSpec
from repro.flopoco.format import FPFormat


@pytest.fixture(scope="module")
def fundus():
    return generate_fundus(size=BENCH_IMAGE_SIZE, seed=11, vessel_depth=0.4)


@pytest.fixture(scope="module")
def reference_result(fundus):
    pipeline = RetinalVesselSegmentation(SegmentationConfig(
        denoise_sizes=(5, 9), matched_size=16, orientations=7, texture_size=9))
    return pipeline.run(fundus)


def test_pipeline_quality_and_stages(benchmark, fundus, reference_result):
    """Report per-stage runtimes and segmentation quality of the full pipeline."""
    result = reference_result
    metrics = benchmark(result.metrics, fundus.vessel_mask, fundus.fov_mask)

    lines = [
        "E5 / Figure 5 -- Retinal vessel segmentation pipeline (reference backend)",
        "",
        f"image: synthetic fundus {fundus.shape[0]}x{fundus.shape[1]} "
        f"(paper: fundus photographs; see README.md substitutions)",
        "",
        "stage runtimes:",
    ]
    for stage, seconds in result.stage_seconds.items():
        lines.append(f"  {stage:<16} {seconds * 1e3:8.2f} ms")
    lines += [
        "",
        "segmentation quality vs ground truth:",
        f"  sensitivity {metrics['sensitivity']:.3f}   specificity {metrics['specificity']:.3f}   "
        f"accuracy {metrics['accuracy']:.3f}   dice {metrics['dice']:.3f}",
    ]
    write_report("retina_pipeline", lines)

    assert metrics["sensitivity"] > 0.3
    assert metrics["specificity"] > 0.7
    assert set(result.stage_seconds) == {
        "preprocess", "denoise", "matched_filters", "texture", "threshold"
    }


def test_vcgra_filter_matches_reference(benchmark, fundus, reference_result):
    """The denoise filter executed on the VCGRA overlay matches the reference."""
    arch = VCGRAArchitecture(rows=5, cols=5,
                             pe_spec=ProcessingElementSpec(fmt=FPFormat(6, 18)))
    kernel = gaussian_kernel(5)
    engine = VCGRAFilterEngine(kernel, arch=arch)
    # Filter a small crop on the overlay (full frames are benchmarked by E4/E7).
    crop = reference_result.preprocessed[:24, :24]

    overlay = benchmark(engine.apply, crop)
    reference = convolve2d(crop, kernel)
    max_err = float(np.max(np.abs(overlay - reference)))

    lines = [
        "E5b -- VCGRA-executed denoise filter vs NumPy reference",
        "",
        f"kernel: 5x5 Gaussian; overlay: {arch.describe()}",
        f"configurations per kernel: {engine.report.num_configurations}",
        f"max absolute response error: {max_err:.2e} "
        f"(FloPoCo wf={arch.pe_spec.fmt.wf} resolution ~{2.0 ** -arch.pe_spec.fmt.wf:.1e})",
    ]
    write_report("retina_vcgra_filter", lines)

    assert max_err < 1e-3
    assert engine.report.num_configurations == 1
