"""The graphical editor, headless.

Paper §4-§5 describe a Sun-3/SunView prototype: a control panel of icons and
editor operations, a central drawing space, a message strip, pop-up menus on
I/O pads, rubber-band wiring, and pop-up subwindows for DMA details.  The
machine the prototype ran on is long gone; what the paper actually
contributes is the *semantics* of that interaction, which this package
implements as a headless model/controller with deterministic ASCII and SVG
renderers.  Every interaction step in Figs. 5-11 has a corresponding
:class:`EditorSession` call, and every screenshot figure has a renderer.
"""

from repro._lazy import lazy_exports

__all__ = [
    "replay_pipeline",
    "replay_program",
    "action_cost",
    "EditorSession",
    "EditorError",
    "Canvas",
    "IconPlacement",
    "CommandStack",
    "Command",
    "PopupMenu",
    "MenuEntry",
    "DMASubwindow",
    "render_datapath",
    "render_icon_catalog",
    "render_pipeline_diagram",
    "render_window",
    "render_execution",
    "render_pipeline_svg",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "session": ("EditorSession", "EditorError"),
        "canvas": ("Canvas", "IconPlacement"),
        "commands": ("CommandStack", "Command"),
        "menus": ("PopupMenu", "MenuEntry", "DMASubwindow"),
        "render_ascii": (
            "render_datapath",
            "render_icon_catalog",
            "render_pipeline_diagram",
            "render_window",
            "render_execution",
        ),
        "render_svg": ("render_pipeline_svg",),
        "replay": ("replay_pipeline", "replay_program", "action_cost"),
    },
)
