import numpy as np
import pytest

from shiftbound.samples import LabeledSample


@pytest.mark.parametrize("labels", [[np.inf, 1.0], [-np.inf], [1e300]])
def test_labeled_sample_refuses_float_labels_outside_int64(labels):
    # each rounds to itself, so only a range check keeps it from becoming a
    # wrapped int64 with a RuntimeWarning
    with pytest.raises(ValueError, match="labels must be integers"):
        LabeledSample(np.zeros((len(labels), 2)), np.array(labels))
