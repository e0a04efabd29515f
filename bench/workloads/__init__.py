"""The five workloads. Each module declares ``MODELS`` (what
:func:`bench.inputs.make_inputs` builds for it), ``run(inputs, seconds,
oracle)``, which returns the end-to-end metric values and a detail block,
and, for the traced run, ``PRIMARY`` (the forest the layer suite uses), a
``Session`` class (cold set-up in ``__init__``, then ``request`` /
``traced_request`` / ``verify`` / ``close``) and the ``SLICE_S`` and
``PROBE`` its closed loop is sliced and probed with."""
