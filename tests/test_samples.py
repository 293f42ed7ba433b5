import numpy as np
import pytest

from shiftbound.samples import LabeledSample


@pytest.mark.parametrize("labels", [[np.inf, 1.0], [-np.inf], [1e300], [0.0, 1.0], [0.5], [2**63]])
def test_labeled_sample_refuses_float_labels_outside_int64(labels):
    # a float or uint64 label array is refused whatever its values: integral
    # ones too, and those a cast would turn into a wrapped int64
    with pytest.raises(ValueError, match="labels must be integers"):
        LabeledSample(np.zeros((len(labels), 2)), np.array(labels))
