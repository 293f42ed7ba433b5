import re

import numpy as np
import pytest

from shiftbound.samples import LabeledSample


@pytest.mark.parametrize("labels", [[np.inf, 1.0], [-np.inf], [1e300], [0.0, 1.0], [0.5], [2**63]])
def test_labeled_sample_refuses_float_labels_outside_int64(labels):
    # a float or uint64 label array is refused whatever its values: integral
    # ones too, and those a cast would turn into a wrapped int64
    with pytest.raises(ValueError, match="labels must be integers"):
        LabeledSample(np.zeros((len(labels), 2)), np.array(labels))


LABELED_SAMPLE_REFUSALS = {
    "1-D features": (dict(features=np.zeros(3), labels=[0, 1, 0]), "features must be 2-D, got shape (3,)"),
    "nan feature": (dict(features=[[0.0], [np.nan]], labels=[0, 1]), "features contain non-finite values"),
    "short labels": (dict(features=np.zeros((3, 1)), labels=[0, 1]), "labels length does not match features"),
    "short origin": (
        dict(features=np.zeros((3, 1)), labels=[0, 1, 0], origin=[0, 1]), "origin length does not match features"
    ),
    "short weights": (
        dict(features=np.zeros((3, 1)), labels=[0, 1, 0], weights=[1.0, 1.0]), "weights length does not match features"
    ),
    "negative weight": (
        dict(features=np.zeros((3, 1)), labels=[0, 1, 0], weights=[1.0, -0.5, 1.0]), "weights must be finite and >= 0"
    ),
    "inf weight": (
        dict(features=np.zeros((3, 1)), labels=[0, 1, 0], weights=[1.0, np.inf, 1.0]), "weights must be finite and >= 0"
    ),
}


@pytest.mark.parametrize("fields, message", LABELED_SAMPLE_REFUSALS.values(), ids=LABELED_SAMPLE_REFUSALS)
def test_labeled_sample_refuses_a_bad_field(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LabeledSample(**fields)