import numpy as np
import pytest

from spillnet import (
    DimensionMismatchError,
    EconomyParams,
    InertTechnologyWarning,
    NonFiniteEntryError,
    ParameterRangeError,
    QualityState,
    SpilloverMatrix,
    validate_model,
)

ONEWAY = [[0, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]]


def test_valid_handle_from_oneway_example():
    model = validate_model(
        SpilloverMatrix(ONEWAY),
        EconomyParams(nu=0.5, alpha=1.0, s_total=1.0),
        QualityState(0.0, np.ones(4)),
    )
    assert model.n == 4
    assert model.matrix.nonnegative


def test_non_square_matrix_rejected():
    with pytest.raises(DimensionMismatchError):
        SpilloverMatrix(np.zeros((3, 4)))


def test_dimension_mismatch_between_matrix_and_q0():
    with pytest.raises(DimensionMismatchError):
        validate_model(
            SpilloverMatrix(np.zeros((2, 2))),
            EconomyParams(nu=0.5, alpha=1.0, s_total=1.0),
            QualityState(0.0, np.ones(3)),
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nu=1.0, alpha=0.0, s_total=1.0),
        dict(nu=0.0, alpha=0.0, s_total=1.0),
        dict(nu=0.5, alpha=-0.1, s_total=1.0),
        dict(nu=0.5, alpha=0.0, s_total=0.0),
        dict(nu=0.5, alpha=0.0, s_total=1.0, c=0.0),
    ],
)
def test_parameter_ranges_rejected(kwargs):
    with pytest.raises(ParameterRangeError):
        EconomyParams(**kwargs)


def test_non_finite_entries_rejected():
    with pytest.raises(NonFiniteEntryError):
        SpilloverMatrix([[0.0, np.nan], [0.0, 0.0]])
    with pytest.raises(NonFiniteEntryError):
        QualityState(0.0, [1.0, np.inf])
    with pytest.raises(NonFiniteEntryError):
        EconomyParams(nu=0.5, alpha=np.nan, s_total=1.0)


def test_negative_quality_rejected():
    with pytest.raises(ParameterRangeError):
        QualityState(0.0, [1.0, -0.5])


def test_construction_copies_and_freezes():
    src = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = SpilloverMatrix(src)
    src[0, 0] = 99.0
    assert m.entries[0, 0] == 0.0
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_equal_inputs_build_equal_handles():
    def build():
        return validate_model(
            SpilloverMatrix(ONEWAY),
            EconomyParams(nu=0.5, alpha=1.0, s_total=1.0),
            QualityState(0.0, np.ones(4)),
        )

    assert build() == build()


def test_nonnegative_flag_is_exact():
    assert SpilloverMatrix([[0.0, 0.0], [0.0, 0.0]]).nonnegative
    assert not SpilloverMatrix([[0.0, -1e-300], [0.0, 0.0]]).nonnegative


def test_inert_technology_warning():
    # zero row plus alpha = 0 pins that quality forever
    with pytest.warns(InertTechnologyWarning, match=r"\[0\]"):
        validate_model(
            SpilloverMatrix([[0, 0], [1, 0]]),
            EconomyParams(nu=0.5, alpha=0.0, s_total=1.0),
            QualityState(0.0, np.ones(2)),
        )


def test_no_warning_with_positive_alpha(recwarn):
    validate_model(
        SpilloverMatrix([[0, 0], [1, 0]]),
        EconomyParams(nu=0.5, alpha=1.0, s_total=1.0),
        QualityState(0.0, np.ones(2)),
    )
    assert not [w for w in recwarn if issubclass(w.category, InertTechnologyWarning)]
