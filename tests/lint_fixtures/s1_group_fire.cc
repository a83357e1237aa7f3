// S1 fixture: a leaf table handed to StatGroup::init registers its
// literals the way add() does, so lookups resolve against them and a
// repeated leaf in one table is a duplicate registration.

struct Counter;
struct StatGroup;
struct StatRegistry;

void
registerConn(StatGroup &g, StatRegistry &reg, Counter &out, Counter &in)
{
    g.init(reg, "conn", {{"segsOut", out}, {"segsIn", in}});
}

void
registerTwice(StatGroup &h, StatRegistry &reg, Counter &a, Counter &b)
{
    h.init(reg, "conn", {{"retx", a},
                         {"retx", b}});
}

unsigned long
readConn(StatRegistry &reg)
{
    return reg.counterValue("conn.segsOut") +
           reg.counterValue("conn.segsOot");
}
