"""Generated by repro.backend.native — do not edit."""
from repro.backend.native import bind as _bind
# the group table points into this namespace's model buffers; the walk
# is one foreign call that releases the GIL and needs no scratch arena
_walk = _bind(
    globals(),
    precision='float64',
    num_features=7,
    num_classes=1,
    lut_cols=16,
    groups=(
        ('const', 0, 0),  # (layout, group id, tile arity)
        ('sparse', 1, 5),  # (layout, group id, tile arity)
        ('sparse', 2, 5),  # (layout, group id, tile arity)
        ('sparse', 3, 5),  # (layout, group id, tile arity)
    ),
)
def predict_block(rows, out, arena=None):
    return _walk(rows, out)
